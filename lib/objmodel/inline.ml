module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost

type specialized = Value.t list -> (Value.t, Oerror.t) result

let specialize (ctx : Call_ctx.t) obj ~iface ~meth =
  (* binding time: one full dispatch worth of work *)
  Clock.advance ctx.Call_ctx.clock ctx.Call_ctx.costs.Cost.indirect_call;
  Clock.bump ctx.Call_ctx.clock Clock.Inline_specialization;
  match Instance.resolve_method obj ~iface ~meth with
  | Error e -> Error e
  | Ok (m, hops) ->
    Clock.advance ctx.Call_ctx.clock (hops * ctx.Call_ctx.costs.Cost.delegation_hop);
    let call args =
      (* per call: direct procedure call + a one-cycle revocation guard *)
      Clock.advance ctx.Call_ctx.clock
        (ctx.Call_ctx.costs.Cost.call + ctx.Call_ctx.costs.Cost.cycle);
      Clock.bump ctx.Call_ctx.clock Clock.Inlined_invocation;
      if obj.Instance.revoked then Error Oerror.Revoked
      else if not (Vtype.check_args m.Iface.msig args) then
        Error
          (Oerror.Type_error
             (Printf.sprintf "%s.%s expects %s" iface meth
                (Vtype.to_string_signature m.Iface.msig)))
      else begin
        match m.Iface.impl ctx args with
        | Error _ as e -> e
        | Ok ret ->
          if Vtype.check m.Iface.msig.Vtype.ret ret then Ok ret
          else
            Error
              (Oerror.Type_error
                 (Printf.sprintf "%s.%s returned an ill-typed value" iface meth))
      end
    in
    Ok call

let specialize_exn (ctx : Call_ctx.t) obj ~iface ~meth =
  match specialize ctx obj ~iface ~meth with
  | Ok f -> f
  | Error e -> Invoke.fail ctx.Call_ctx.clock e

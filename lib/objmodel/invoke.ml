module Cost = Pm_machine.Cost
module Clock = Pm_machine.Clock
module Obs = Pm_obs.Obs

let dispatch (ctx : Call_ctx.t) obj ~iface ~meth args =
  Clock.advance ctx.clock ctx.costs.Cost.indirect_call;
  Clock.count ctx.clock "method_invocation";
  match Instance.resolve_method obj ~iface ~meth with
  | Error e -> Error e
  | Ok (m, hops) ->
    if hops > 0 then begin
      Clock.advance ctx.clock (hops * ctx.costs.Cost.delegation_hop);
      Clock.count ctx.clock "delegation"
    end;
    if not (Vtype.check_args m.Iface.msig args) then
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

(* the flag is tested here as well as in [Clock.span] so the untraced
   hot path allocates no closure *)
let call (ctx : Call_ctx.t) obj ~iface ~meth args =
  if not (Obs.enabled (Clock.obs ctx.clock)) then dispatch ctx obj ~iface ~meth args
  else
    Clock.span ctx.clock ~costs:ctx.costs ~domain:ctx.caller_domain ~layer:"invoke"
      ~obj:obj.Instance.class_name ~iface ~meth ~metric:"invoke.dispatch"
      (fun () -> dispatch ctx obj ~iface ~meth args)

let call_exn ctx obj ~iface ~meth args =
  match call ctx obj ~iface ~meth args with
  | Ok v -> v
  | Error e -> Oerror.fail e

module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost

type t = {
  ns : Namespace.t;
  parent : t option;
  mutable ovr : (Path.t * int) list; (* nearest-first association list *)
}

let of_namespace ns = { ns; parent = None; ovr = [] }

let derive ?(overrides = []) parent =
  { ns = parent.ns; parent = Some parent; ovr = overrides }

let add_override t path handle =
  t.ovr <- (path, handle) :: List.filter (fun (p, _) -> not (Path.equal p path)) t.ovr

let remove_override t path =
  t.ovr <- List.filter (fun (p, _) -> not (Path.equal p path)) t.ovr

let overrides t = t.ovr

let bind (ctx : Pm_obj.Call_ctx.t) t path =
  let costs = ctx.Pm_obj.Call_ctx.costs in
  let clock = ctx.Pm_obj.Call_ctx.clock in
  Clock.count clock "ns_bind";
  (* walk the override chain outwards, charging per override consulted *)
  let rec through_views view =
    match view with
    | None ->
      Clock.advance clock (Path.length path * costs.Cost.ns_component);
      Namespace.lookup t.ns path
    | Some v ->
      let rec scan = function
        | [] -> through_views v.parent
        | (p, h) :: rest ->
          Clock.advance clock costs.Cost.ns_override;
          if Path.equal p path then Ok h else scan rest
      in
      scan v.ovr
  in
  through_views (Some t)

let bind_exn ctx t path =
  match bind ctx t path with Ok h -> h | Error e -> raise (Namespace.Name_error e)

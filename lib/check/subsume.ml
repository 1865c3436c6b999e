(* Interface subsumption: the paper's interposition rule made checkable.
   "Replacing a name-space entry is only allowed with a superset object"
   — an agent may stand in for an object only if every interface the
   object exports is matched, method for method, by the agent. Extra
   agent interfaces (a monitor, a measurement interface) are the point
   of interposition and always welcome. *)

module Iface = Pm_obj.Iface
module Vtype = Pm_obj.Vtype

(* A generic forwarder declares Tany; that matches any concrete type on
   the wrapped side. Anything else must agree structurally. *)
let rec ty_ok ~wrapped ~agent =
  match (wrapped, agent) with
  | _, Vtype.Tany -> true
  | Vtype.Tpair (a1, b1), Vtype.Tpair (a2, b2) ->
    ty_ok ~wrapped:a1 ~agent:a2 && ty_ok ~wrapped:b1 ~agent:b2
  | Vtype.Tlist a, Vtype.Tlist b -> ty_ok ~wrapped:a ~agent:b
  | w, a -> w = a

let check_method ~iface (wm : Iface.meth) (am : Iface.meth) =
  let w = wm.Iface.msig and a = am.Iface.msig in
  if List.length w.Vtype.args <> List.length a.Vtype.args then
    Error
      (Printf.sprintf "%s.%s: arity %d vs agent's %d" iface wm.Iface.mname
         (List.length w.Vtype.args)
         (List.length a.Vtype.args))
  else if
    not
      (List.for_all2
         (fun wt at -> ty_ok ~wrapped:wt ~agent:at)
         w.Vtype.args a.Vtype.args)
  then
    Error
      (Printf.sprintf "%s.%s: argument types %s vs agent's %s" iface
         wm.Iface.mname
         (Vtype.to_string_signature w)
         (Vtype.to_string_signature a))
  else if not (ty_ok ~wrapped:w.Vtype.ret ~agent:a.Vtype.ret) then
    Error
      (Printf.sprintf "%s.%s: return type %s vs agent's %s" iface wm.Iface.mname
         (Vtype.to_string_signature w)
         (Vtype.to_string_signature a))
  else Ok ()

let check_iface (w : Iface.t) (a : Iface.t) =
  List.fold_left
    (fun acc wm ->
      match acc with
      | Error _ as e -> e
      | Ok () -> (
        match Iface.find_method a wm.Iface.mname with
        | None ->
          Error
            (Printf.sprintf "interface %S: method %S missing from the agent"
               w.Iface.name wm.Iface.mname)
        | Some am -> check_method ~iface:w.Iface.name wm am))
    (Ok ()) w.Iface.methods

(* [check ~wrapped ~agent] verifies that [agent]'s interfaces subsume
   [wrapped]'s. *)
let check ~wrapped ~agent =
  List.fold_left
    (fun acc (w : Iface.t) ->
      match acc with
      | Error _ as e -> e
      | Ok () -> (
        match
          List.find_opt (fun (a : Iface.t) -> a.Iface.name = w.Iface.name) agent
        with
        | None ->
          Error (Printf.sprintf "interface %S missing from the agent" w.Iface.name)
        | Some a -> check_iface w a))
    (Ok ()) wrapped

let check_instances ~wrapped ~agent =
  check ~wrapped:wrapped.Pm_obj.Instance.interfaces
    ~agent:agent.Pm_obj.Instance.interfaces

type mode = Static | Dynamic

type export = { as_name : string; child : string; iface : string }

type t = {
  instance : Instance.t;
  mode : mode;
  mutable kids : (string * Instance.t) list;
  exports : export list;
}

let find_child t name = List.assoc_opt name t.kids

(* Build the forwarding interface for one export, resolving the child at
   call time so child replacement transparently re-wires. *)
let forwarding_iface t e =
  match find_child t e.child with
  | None -> invalid_arg (Printf.sprintf "Composite: no child %S" e.child)
  | Some kid ->
    (match Instance.get_interface kid e.iface with
    | None ->
      invalid_arg
        (Printf.sprintf "Composite: child %S lacks interface %S" e.child e.iface)
    | Some src ->
      let forward_method (m : Iface.meth) =
        let impl ctx args =
          match find_child t e.child with
          | None -> Error (Oerror.Fault ("composition lost child " ^ e.child))
          | Some kid -> Invoke.call ctx kid ~iface:e.iface ~meth:m.Iface.mname args
        in
        { m with Iface.impl }
      in
      Iface.make ~name:e.as_name
        (List.map forward_method src.Iface.methods))

let rebuild_exports t =
  t.instance.Instance.interfaces <- List.map (forwarding_iface t) t.exports

let make registry ~class_name ~domain ~mode ~children ~exports =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n, _) ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Composite.make: duplicate child %S" n);
      Hashtbl.add seen n ())
    children;
  let instance = Instance.create registry ~class_name ~domain [] in
  let t = { instance; mode; kids = children; exports } in
  rebuild_exports t;
  t

let instance t = t.instance
let child t name = find_child t name
let children t = t.kids

let replace_child t name inst =
  if t.mode = Static then
    invalid_arg "Composite.replace_child: static composition (link-time)";
  if find_child t name = None then
    invalid_arg (Printf.sprintf "Composite.replace_child: no child %S" name);
  List.iter
    (fun e ->
      if String.equal e.child name && Instance.get_interface inst e.iface = None
      then
        invalid_arg
          (Printf.sprintf
             "Composite.replace_child: replacement lacks interface %S" e.iface))
    t.exports;
  t.kids <- List.map (fun (n, k) -> if String.equal n name then (n, inst) else (n, k)) t.kids;
  rebuild_exports t

let add_child t name inst =
  if t.mode = Static then invalid_arg "Composite.add_child: static composition";
  if find_child t name <> None then
    invalid_arg (Printf.sprintf "Composite.add_child: duplicate child %S" name);
  t.kids <- t.kids @ [ (name, inst) ]

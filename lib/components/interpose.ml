module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Directory = Pm_nucleus.Directory
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Path = Pm_names.Path
module Namespace = Pm_names.Namespace
module Subsume = Pm_check.Subsume

type call_hook = iface:string -> meth:string -> Value.t list -> unit

let rec blob_bytes_of = function
  | Value.Blob b -> Bytes.length b
  | Value.Str _ | Value.Int _ | Value.Bool _ | Value.Unit | Value.Handle _ -> 0
  | Value.Pair (a, b) -> blob_bytes_of a + blob_bytes_of b
  | Value.List xs -> List.fold_left (fun acc v -> acc + blob_bytes_of v) 0 xs

let wrap api dom ~target ?on_call ?(overrides = []) () =
  let calls = ref 0 and blob_bytes = ref 0 in
  let observe args =
    incr calls;
    blob_bytes := !blob_bytes + List.fold_left (fun acc v -> acc + blob_bytes_of v) 0 args
  in
  let forwarded iface_name (m : Iface.meth) =
    let override =
      List.find_map
        (fun (i, meth, impl) ->
          if String.equal i iface_name && String.equal meth m.Iface.mname then Some impl
          else None)
        overrides
    in
    let impl ctx args =
      observe args;
      (match on_call with
      | Some h -> h ~iface:iface_name ~meth:m.Iface.mname args
      | None -> ());
      match override with
      | Some impl -> impl ctx args
      | None -> Invoke.call ctx target ~iface:iface_name ~meth:m.Iface.mname args
    in
    { m with Iface.impl }
  in
  let agent_iface (i : Iface.t) =
    Iface.make ~name:i.Iface.name
      (List.map (forwarded i.Iface.name) i.Iface.methods)
  in
  let monitor =
    Iface.make ~name:"monitor"
      [
        Iface.fn0 ~name:"calls" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int !calls));
        Iface.fn0 ~name:"blob_bytes" ~ret:Vtype.Tint (fun _ ->
            Ok (Value.Int !blob_bytes));
        Iface.fn0 ~name:"reset" ~ret:Vtype.Tunit (fun _ ->
            calls := 0;
            blob_bytes := 0;
            Ok Value.Unit);
      ]
  in
  Instance.create api.Api.registry
    ~class_name:("interposer:" ^ target.Instance.class_name)
    ~domain:dom.Domain.id
    (List.map agent_iface target.Instance.interfaces @ [ monitor ])

let attach api ~path ~agent =
  let dir = api.Api.directory in
  let p = Path.of_string path in
  (* the paper's superset rule, enforced: the agent must re-export every
     interface (method by method, argument by argument) of the object it
     replaces — anything less would break existing importers silently *)
  (match Namespace.lookup (Directory.namespace dir) p with
  | Error _ -> () (* a missing path is reported by [replace] below *)
  | Ok handle ->
    (match Directory.resolve_handle dir handle with
    | None -> ()
    | Some current ->
      (match Subsume.check_instances ~wrapped:current ~agent with
      | Ok () -> ()
      | Error detail ->
        Invoke.fail
          (Pm_machine.Machine.clock api.Api.machine)
          (Oerror.Not_superset detail))));
  match Directory.replace dir p agent with
  | Ok old -> Ok old
  | Error e -> Error (Directory.bind_error_to_string e)

let packet_monitor api dom ~target = wrap api dom ~target ()

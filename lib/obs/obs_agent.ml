module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Directory = Pm_nucleus.Directory
module Interpose = Pm_components.Interpose
module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Invoke = Pm_obj.Invoke
module Path = Pm_names.Path
module Namespace = Pm_names.Namespace
module Obs = Pm_obs.Obs

(* The trace agent is an ordinary interposer whose every forwarded
   method runs inside one span, and counts the errors it forwards. *)
let trace_agent api dom ~target =
  let machine = api.Api.machine in
  let clock = Machine.clock machine in
  let obs = Clock.obs clock in
  let domain = dom.Domain.id and obj = "trace:" ^ target.Instance.class_name in
  let traced (i : Iface.t) (m : Iface.meth) =
    let iface = i.Iface.name and meth = m.Iface.mname in
    let impl ctx args =
      let result =
        Clock.span clock ~costs:(Machine.costs machine) ~domain ~layer:"agent" ~obj ~iface
          ~meth (fun () -> Invoke.call ctx target ~iface ~meth args)
      in
      (match result with
      | Error _ when Obs.enabled obs -> Obs.incr obs ~domain "trace.errors"
      | _ -> ());
      result
    in
    (iface, meth, impl)
  in
  let overrides =
    List.concat_map
      (fun (i : Iface.t) -> List.map (traced i) i.Iface.methods)
      target.Instance.interfaces
  in
  Interpose.wrap api dom ~target ~overrides ()

let interpose api ~path =
  let dir = api.Api.directory in
  match Namespace.lookup (Directory.namespace dir) (Path.of_string path) with
  | Error e -> Error (Namespace.error_to_string e)
  | Ok handle ->
    (match Directory.resolve_handle dir handle with
    | None -> Error (Printf.sprintf "handle %d at %s is dangling" handle path)
    | Some target ->
      let agent = trace_agent api api.Api.kernel_domain ~target in
      (match Interpose.attach api ~path ~agent with
      | Ok original -> Ok (agent, original)
      | Error e -> Error e))

let remove api ~path ~agent ~original =
  match Directory.replace api.Api.directory (Path.of_string path) original with
  | Error e -> Error (Directory.bind_error_to_string e)
  | Ok prev ->
    if prev == agent then Ok ()
    else begin
      (* someone interposed over us since; put their entry back *)
      ignore (Directory.replace api.Api.directory (Path.of_string path) prev);
      Error (Printf.sprintf "entry at %s is not the trace agent" path)
    end

let installer api =
  {
    Pm_nucleus.Tracesvc.install =
      (fun path ->
        match interpose api ~path with
        | Ok (agent, original) -> Ok { Pm_nucleus.Tracesvc.agent; original }
        | Error e -> Error e);
    uninstall =
      (fun path { Pm_nucleus.Tracesvc.agent; original } ->
        remove api ~path ~agent ~original);
  }

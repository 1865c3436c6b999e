module Namespace = Pm_names.Namespace
module Path = Pm_names.Path
module View = Pm_names.View
module Instance = Pm_obj.Instance
module Registry = Pm_obj.Registry
module Clock = Pm_machine.Clock
module Journal = Pm_journal.Journal

type bind_error = Name of Namespace.error | Dangling of int | No_memory of string

let bind_error_to_string = function
  | Name e -> Namespace.error_to_string e
  | Dangling h -> Printf.sprintf "handle %d is dangling" h
  | No_memory m -> "no page for the proxy's entry: " ^ m

type t = {
  machine : Pm_machine.Machine.t;
  vmem : Vmem.t;
  registry : Instance.t Registry.t;
  ns : Namespace.t;
  proxies : (int, Proxy.t list) Hashtbl.t; (* target oid -> one per importer *)
  mutable replacements : (Path.t * int * int) list;
      (* interposition log, newest first: (path, old handle, new handle) —
         plain stores, read by the composition linter *)
}

let create ~machine ~vmem ~registry ~ns =
  { machine; vmem; registry; ns; proxies = Hashtbl.create 16; replacements = [] }

let namespace t = t.ns

(* structural mutations are journalled — plain stores, no simulated
   cycles, like every other journal record *)
let jot t ~kind ~domain ~info ~detail =
  let clock = Pm_machine.Machine.clock t.machine in
  Journal.record
    (Pm_obs.Obs.journal (Clock.obs clock))
    ~kind ~domain ~at:(Clock.now clock) ~info ~detail

let register t path inst =
  match Namespace.register t.ns path (Instance.handle inst) with
  | Error _ as e -> e
  | Ok () ->
    jot t ~kind:Journal.Bind ~domain:inst.Instance.domain
      ~info:(Instance.handle inst) ~detail:(Path.to_string path);
    Ok ()

let unregister t path =
  let prev = Namespace.lookup t.ns path in
  match Namespace.unregister t.ns path with
  | Error _ as e -> e
  | Ok () ->
    let info, domain =
      match prev with
      | Ok h ->
        ( h,
          match Registry.get t.registry h with
          | Some inst -> inst.Instance.domain
          | None -> 0 )
      | Error _ -> (0, 0)
    in
    jot t ~kind:Journal.Unbind ~domain ~info ~detail:(Path.to_string path);
    Ok ()

let replace t path inst =
  match Namespace.replace t.ns path (Instance.handle inst) with
  | Error e -> Error (Name e)
  | Ok old_handle ->
    t.replacements <- (path, old_handle, Instance.handle inst) :: t.replacements;
    jot t ~kind:Journal.Interpose ~domain:inst.Instance.domain
      ~info:(Instance.handle inst)
      ~detail:
        (Printf.sprintf "%s: %d -> %d" (Path.to_string path) old_handle
           (Instance.handle inst));
    (match Registry.get t.registry old_handle with
    | Some old_inst -> Ok old_inst
    | None -> Error (Dangling old_handle))

(* Undo the newest [replace] of [agent] at [path]: swap [restore] back
   in and pop the matching interposition-log entry, so an aborted
   transaction leaves the log (and hence the linter) exactly as before.
   The composition primitive behind System.transact rollback. *)
let unreplace t path ~agent ~restore =
  match Namespace.replace t.ns path (Instance.handle restore) with
  | Error e -> Error (Name e)
  | Ok _displaced ->
    let agent_h = Instance.handle agent in
    let dropped = ref false in
    t.replacements <-
      List.filter
        (fun (p, _old_h, new_h) ->
          if (not !dropped) && Path.equal p path && new_h = agent_h then begin
            dropped := true;
            false
          end
          else true)
        t.replacements;
    jot t ~kind:Journal.Uninterpose ~domain:restore.Instance.domain
      ~info:(Instance.handle restore)
      ~detail:
        (Printf.sprintf "%s: %d -> %d" (Path.to_string path) agent_h
           (Instance.handle restore));
    Ok ()

let replacements t = List.rev t.replacements

let proxy_for t target importer =
  let h = Instance.handle target in
  let bound = Option.value (Hashtbl.find_opt t.proxies h) ~default:[] in
  match
    List.find_opt (fun (r : Proxy.t) -> r.Proxy.importer.Domain.id = importer.Domain.id) bound
  with
  | Some r -> r.Proxy.instance
  | None ->
    let r =
      Proxy.make ~machine:t.machine ~vmem:t.vmem ~registry:t.registry ~target
        ~importer
    in
    Hashtbl.replace t.proxies h (r :: bound);
    r.Proxy.instance

let bind t ctx ~view ~domain path =
  match View.bind ctx view path with
  | Error e -> Error (Name e)
  | Ok handle ->
    (match Registry.get t.registry handle with
    | None -> Error (Dangling handle)
    | Some inst ->
      if inst.Instance.domain = domain.Domain.id then Ok inst
      else begin
        match proxy_for t inst domain with
        | proxy -> Ok proxy
        | exception Vmem.Vmem_error m -> Error (No_memory m)
      end)

let bind_exn t ctx ~view ~domain path =
  match bind t ctx ~view ~domain path with
  | Ok inst -> inst
  | Error e -> failwith ("Directory.bind: " ^ bind_error_to_string e)

let resolve_handle t h = Registry.get t.registry h

let proxy_count t = Hashtbl.fold (fun _ bound n -> n + List.length bound) t.proxies 0

let release t target =
  let h = Instance.handle target in
  match Hashtbl.find_opt t.proxies h with
  | None -> ()
  | Some bound ->
    Hashtbl.remove t.proxies h;
    List.iter
      (fun (r : Proxy.t) ->
        Vmem.free_pages t.vmem r.Proxy.importer ~vaddr:r.Proxy.entry ~count:1;
        Registry.remove t.registry (Instance.handle r.Proxy.instance))
      bound

(* drop the receipts [p] selects from the table and their proxies from
   the registry; their entry pages are the caller's to free *)
let forget t p =
  Hashtbl.filter_map_inplace
    (fun _ bound ->
      let gone, kept = List.partition p bound in
      List.iter
        (fun (r : Proxy.t) -> Registry.remove t.registry (Instance.handle r.Proxy.instance))
        gone;
      if kept = [] then None else Some kept)
    t.proxies

let drop_imports t dom =
  forget t (fun (r : Proxy.t) -> r.Proxy.importer.Domain.id = dom.Domain.id)

let entry_page t (r : Proxy.t) =
  (r.Proxy.importer.Domain.id, r.Proxy.entry / Pm_machine.Machine.page_size t.machine)

let bound_since t mark r = Vmem.made_since mark (entry_page t r)

let taken_since t mark =
  match Vmem.allocated_since t.vmem mark with
  | [] -> []
  | pages ->
    let entries =
      Hashtbl.fold
        (fun _ bound acc ->
          List.fold_left
            (fun acc r -> if bound_since t mark r then entry_page t r :: acc else acc)
            acc bound)
        t.proxies []
    in
    List.filter (fun page -> not (List.mem page entries)) pages

let slots_since t first ~except =
  let live = ref [] in
  for h = Registry.next t.registry - 1 downto first do
    if h <> except && Registry.mem t.registry h then live := h :: !live
  done;
  match !live with
  | [] -> []
  | live ->
    let owned = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ bound ->
        List.iter
          (fun (r : Proxy.t) -> Hashtbl.replace owned (Instance.handle r.Proxy.instance) ())
          bound)
      t.proxies;
    Namespace.iter t.ns (fun _ h -> Hashtbl.replace owned h ());
    List.filter (fun h -> not (Hashtbl.mem owned h)) live

let rollback t mark =
  forget t (bound_since t mark);
  List.iter (Vmem.release t.vmem) (Vmem.allocated_since t.vmem mark)

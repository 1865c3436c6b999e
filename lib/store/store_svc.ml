(* /shared/store: the storage factory.

   Anyone who can bind the factory can grow a stack: each method boots
   one component — driver, partition, cache, log, kv — in the *caller's*
   domain (the origin of the call context, the Netsvc idiom), wires it
   above a lower layer by namespace path, and registers it under
   [/store/<name>] where the next layer, an interposer, or a remote
   client finds it. [detach] is the orderly teardown: flush first (so
   write-back state reaches the device), then unregister, then revoke —
   leaving no dangling [/store] endpoint, which the composition linter
   checks. *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Directory = Pm_nucleus.Directory
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Call_ctx = Pm_obj.Call_ctx
module Path = Pm_names.Path
module Images = Pm_components.Images

let fault msg = Error (Oerror.Fault msg)
let ( let* ) = Result.bind

let store_path name = Printf.sprintf "/store/%s" name

let register_at api name inst =
  let path = store_path name in
  match Directory.register api.Api.directory (Path.of_string path) inst with
  | Ok () ->
    (match Storereg.find ~machine:api.Api.machine name with
    | Some e -> Storereg.set_bound e (Some path)
    | None -> ());
    Ok (Value.Handle (Instance.handle inst))
  | Error e -> fault ("store factory: " ^ Pm_names.Namespace.error_to_string e)

(* Flush whatever durable state the component still holds; a driver has
   nothing above the device, so its flush just drains the ring. *)
let flush_entry ctx (e : Storereg.entry) =
  let inst = e.Storereg.instance in
  if Option.is_some (Instance.get_interface inst "kv") then
    Invoke.call ctx inst ~iface:"kv" ~meth:"flush" [] |> Result.map ignore
  else if Option.is_some (Instance.get_interface inst Blockif.iface_name) then
    Invoke.call ctx inst ~iface:Blockif.iface_name ~meth:"flush" []
    |> Result.map ignore
  else Ok ()

let create api ~domain_of_id () =
  let origin (ctx : Call_ctx.t) =
    match domain_of_id ctx.Call_ctx.origin_domain with
    | Some d -> Ok d
    | None ->
      fault
        (Printf.sprintf "store factory: unknown domain %d"
           ctx.Call_ctx.origin_domain)
  in
  (* each constructor boots its component in the caller's domain *)
  let boot ctx name mk =
    let* dom = origin ctx in
    register_at api name (mk dom)
  in
  let iface =
    Iface.make ~name:"store.factory"
      [
        Iface.fn1 ~name:"driver" Iface.Str ~ret:Vtype.Thandle (fun ctx name ->
            boot ctx name (fun dom -> Blkdrv.create api dom));
        Iface.fn4 ~name:"partition" Iface.Str Iface.Str Iface.Int Iface.Int
          ~ret:Vtype.Thandle (fun ctx name lower base count ->
            boot ctx name (fun dom ->
                Partition.create api dom ~name ~lower ~base ~count ()));
        Iface.fn3 ~name:"cache" Iface.Str Iface.Str Iface.Int ~ret:Vtype.Thandle
          (fun ctx name lower capacity ->
            boot ctx name (fun dom -> Cache.create api dom ~name ~lower ~capacity ()));
        Iface.fn2 ~name:"log" Iface.Str Iface.Str ~ret:Vtype.Thandle
          (fun ctx name lower ->
            boot ctx name (fun dom -> Blocklog.create api dom ~name ~lower ()));
        Iface.fn2 ~name:"kv" Iface.Str Iface.Str ~ret:Vtype.Thandle (fun ctx name log ->
            boot ctx name (fun dom -> Kv.create api dom ~name ~log ()));
        Iface.fn1 ~name:"detach" Iface.Str ~ret:Vtype.Tunit (fun ctx name ->
            match Storereg.find ~machine:api.Api.machine name with
            | None -> fault (Printf.sprintf "store factory: no component %s" name)
            | Some e ->
              let* () = flush_entry ctx e in
              ignore
                (Directory.unregister api.Api.directory
                   (Path.of_string (store_path name)));
              Instance.revoke e.Storereg.instance;
              Storereg.set_bound e None;
              Storereg.mark_detached e;
              Ok Value.Unit);
        Iface.fn0 ~name:"list" ~ret:(Vtype.Tlist Vtype.Tstr) (fun _ ->
            let entries = ref [] in
            Storereg.iter_all ~machine:api.Api.machine (fun e ->
                if not e.Storereg.detached then
                  entries :=
                    Value.Str
                      (Printf.sprintf "%s:%s" e.Storereg.name
                         (Storereg.kind_to_string e.Storereg.kind))
                    :: !entries);
            Ok (Value.List (List.rev !entries)));
      ]
  in
  Instance.create api.Api.registry ~class_name:"store.factory"
    ~domain:api.Api.kernel_domain.Domain.id [ iface ]

(* ------------------------------------------------------------------ *)
(* /stats/store.<name>: one counter object per registered component,   *)
(* published beside /stats/kernel. The counters come from the          *)
(* component's own stats() method, labeled by kind so clients see      *)
(* "hits"/"dirty", not positional ints.                                *)
(* ------------------------------------------------------------------ *)

(* labels in each component's stats() order *)
let stat_labels = function
  | Storereg.Driver -> [ "blk_reads"; "blk_writes"; "blk_irq_acks" ]
  | Storereg.Partition -> [ "reads"; "writes" ]
  | Storereg.Cache ->
    [ "hits"; "misses"; "evictions"; "writebacks"; "dirty"; "capacity" ]
  | Storereg.Log -> [ "appends"; "gets"; "segments"; "flushed" ]
  | Storereg.Kv -> [ "puts"; "gets"; "dels"; "recovers" ]

let stats_object api (e : Storereg.entry) =
  let inst = e.Storereg.instance in
  let counters ctx =
    let iface =
      if Option.is_some (Instance.get_interface inst "kv") then "kv"
      else Blockif.iface_name
    in
    match Invoke.call ctx inst ~iface ~meth:"stats" [] with
    | Ok (Value.List vs) ->
      Ok (List.filter_map (function Value.Int n -> Some n | _ -> None) vs)
    | Ok _ -> fault "store stats: component returned non-list"
    | Error err -> Error err
  in
  let labeled ctx =
    let* cs = counters ctx in
    let rec zip ls cs i =
      match (ls, cs) with
      | _, [] -> []
      | [], c :: rest -> (Printf.sprintf "stat%d" i, c) :: zip [] rest (i + 1)
      | l :: ls, c :: rest -> (l, c) :: zip ls rest (i + 1)
    in
    Ok (zip (stat_labels e.Storereg.kind) cs 0)
  in
  let iface =
    Iface.make ~name:"stats.store"
      [
        Iface.fn0 ~name:"snapshot" ~ret:Vtype.Tstr (fun ctx ->
            let* pairs = labeled ctx in
            let header =
              Printf.sprintf "store.%s kind=%s domain=%d bound=%s dirty=%d"
                e.Storereg.name
                (Storereg.kind_to_string e.Storereg.kind)
                e.Storereg.domain
                (Option.value e.Storereg.bound ~default:"-")
                (e.Storereg.dirty ())
            in
            let lines = List.map (fun (l, c) -> Printf.sprintf "  %-12s %d" l c) pairs in
            Ok (Value.Str (String.concat "\n" (header :: lines))));
        Iface.fn1 ~name:"value" Iface.Str ~ret:Vtype.Tint (fun ctx name ->
            let* pairs = labeled ctx in
            match List.assoc_opt name pairs with
            | Some v -> Ok (Value.Int v)
            | None ->
              fault
                (Printf.sprintf "store stats: no counter %S on %s" name
                   e.Storereg.name));
      ]
  in
  Instance.create api.Api.registry ~class_name:"obs.stats.store"
    ~domain:api.Api.kernel_domain.Domain.id [ iface ]

(* Publish /stats/store.<name> for every live component of this
   machine's stack. Safe to call again after growing the stack: a name
   already registered is left alone. Returns the number published. *)
let publish_stats api =
  let fresh = ref 0 in
  Storereg.iter_all ~machine:api.Api.machine (fun e ->
      if not e.Storereg.detached then begin
        let path = Path.of_string ("/stats/store." ^ e.Storereg.name) in
        match Directory.register api.Api.directory path (stats_object api e) with
        | Ok () -> incr fresh
        | Error _ -> ()
      end);
  !fresh

let image ~domain_of_id () =
  Images.image ~name:"store-factory" ~size:16_384 ~author:"kernel-team"
    ~type_safe:true
    (fun api _dom -> create api ~domain_of_id ())

(* Images for placing individual stack layers like any other component:
   the construct runs in whatever domain the placement dictates. *)
let driver_image () =
  Images.image ~name:"store-blkdrv" ~size:24_576 ~author:"kernel-team"
    ~type_safe:false
    (fun api dom -> Blkdrv.create api dom)

let partition_image ~name ~lower ~base ~count () =
  Images.image ~name:("store-" ^ name) ~size:8_192 ~author:"kernel-team"
    ~type_safe:true
    (fun api dom -> Partition.create api dom ~name ~lower ~base ~count ())

let cache_image ~name ~lower ~capacity () =
  Images.image ~name:("store-" ^ name) ~size:12_288 ~author:"kernel-team"
    ~type_safe:true
    (fun api dom -> Cache.create api dom ~name ~lower ~capacity ())

let log_image ~name ~lower () =
  Images.image ~name:("store-" ^ name) ~size:12_288 ~author:"kernel-team"
    ~type_safe:true
    (fun api dom -> Blocklog.create api dom ~name ~lower ())

let kv_image ~name ~log () =
  Images.image ~name:("store-" ^ name) ~size:16_384 ~author:"kernel-team"
    ~type_safe:true
    (fun api dom -> Kv.create api dom ~name ~log ())

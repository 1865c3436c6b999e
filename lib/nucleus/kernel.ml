module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Clock = Pm_machine.Clock
module Nic = Pm_machine.Nic
module Timer_dev = Pm_machine.Timer_dev
module Console = Pm_machine.Console
module Blkdev = Pm_machine.Blkdev
module Namespace = Pm_names.Namespace
module Path = Pm_names.Path
module View = Pm_names.View
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Registry = Pm_obj.Registry
module Composite = Pm_obj.Composite
module Scheduler = Pm_threads.Scheduler

type t = {
  machine : Machine.t;
  registry : Instance.t Registry.t;
  ns : Namespace.t;
  root_view : View.t;
  api : Api.t;
  loader : Loader.t;
  kernel_domain : Domain.t;
  mutable user_domains : Domain.t list; (* newest first *)
  nic : Nic.t;
  timer : Timer_dev.t;
  disk : Blkdev.t;
  blkdev : Blkdev.t;
  nucleus : Composite.t;
  tracesvc : Tracesvc.t;
  smp : Pm_threads.Smp.t; (* one scheduler per CPU *)
}

let machine t = t.machine
let clock t = Machine.clock t.machine
let cpu t = t.machine
let smp t = t.smp
let cpus t = Pm_machine.Cpu.count t.machine
let api t = t.api
let events t = t.api.Api.events
let vmem t = t.api.Api.vmem
let directory t = t.api.Api.directory
let certification t = t.api.Api.certification
let tracesvc t = t.tracesvc
let loader t = t.loader
let sched t = t.api.Api.sched
let kernel_domain t = t.kernel_domain
let nic t = t.nic
let timer t = t.timer
let disk t = t.disk
let blkdev t = t.blkdev

let ctx t dom = Api.ctx t.api dom

let domains t = t.kernel_domain :: List.rev t.user_domains

(* domain lifecycle is journalled — plain stores, no simulated cycles *)
let jot machine ~kind ~domain ~info ~detail =
  let clock = Machine.clock machine in
  Pm_journal.Journal.record
    (Pm_obs.Obs.journal (Clock.obs clock))
    ~kind ~domain ~at:(Clock.now clock) ~info ~detail

let domain_of_id t id =
  if id = t.kernel_domain.Domain.id then Some t.kernel_domain
  else List.find_opt (fun d -> d.Domain.id = id) t.user_domains

(* ------------------------------------------------------------------ *)
(* Service wrapper objects: each nucleus service as an object with a    *)
(* small interface, so the kernel itself is built from the same         *)
(* software architecture it offers to applications.                     *)
(* ------------------------------------------------------------------ *)

let ok_int n = Ok (Value.Int n)
let ok_str s = Ok (Value.Str s)
let fault_of to_string e = Error (Oerror.Fault (to_string e))

(* Directory and memory calls act for the caller's domain: resolve it
   from the call context, or refuse the call. *)
let for_caller t_ref ctx k =
  let t = Option.get !t_ref in
  match domain_of_id t ctx.Pm_obj.Call_ctx.origin_domain with
  | Some dom -> k t dom
  | None -> Error (Oerror.Domain_error "unknown caller domain")

let with_handle t handle k =
  match Directory.resolve_handle t.api.Api.directory handle with
  | None -> Error (Oerror.Fault (Printf.sprintf "dangling handle %d" handle))
  | Some inst -> k inst

(* The directory object resolves names relative to the *caller's* domain
   view, so user programs get their own overrides applied — this needs
   the domain table, hence the forward reference through [t_ref]. *)
let directory_object t_ref registry kdom =
  let dir () = (Option.get !t_ref).api.Api.directory in
  let iface =
    Iface.make ~name:"directory"
      [
        Iface.fn1 ~name:"bind" Iface.Str ~ret:Vtype.Tint (fun ctx path ->
            for_caller t_ref ctx (fun t dom ->
                match
                  Directory.bind t.api.Api.directory ctx ~view:dom.Domain.view
                    ~domain:dom (Path.of_string path)
                with
                | Ok inst -> ok_int (Instance.handle inst)
                | Error e -> fault_of Directory.bind_error_to_string e));
        Iface.fn2 ~name:"register" Iface.Str Iface.Int ~ret:Vtype.Tunit
          (fun ctx path handle ->
            for_caller t_ref ctx (fun t _ ->
                with_handle t handle (fun inst ->
                    match
                      Directory.register t.api.Api.directory (Path.of_string path) inst
                    with
                    | Ok () -> Ok Value.Unit
                    | Error e -> fault_of Namespace.error_to_string e)));
        Iface.fn1 ~name:"unregister" Iface.Str ~ret:Vtype.Tunit (fun _ path ->
            match Directory.unregister (dir ()) (Path.of_string path) with
            | Ok () -> Ok Value.Unit
            | Error e -> fault_of Namespace.error_to_string e);
        Iface.fn2 ~name:"replace" Iface.Str Iface.Int ~ret:Vtype.Tint
          (fun _ path handle ->
            with_handle (Option.get !t_ref) handle (fun inst ->
                match Directory.replace (dir ()) (Path.of_string path) inst with
                | Ok old -> ok_int (Instance.handle old)
                | Error e -> fault_of Directory.bind_error_to_string e));
        Iface.fn1 ~name:"list" Iface.Str ~ret:(Vtype.Tlist Vtype.Tstr) (fun _ path ->
            match Namespace.list (Directory.namespace (dir ())) (Path.of_string path) with
            | Ok entries ->
              Ok (Value.List (List.map (fun (seg, _) -> Value.Str seg) entries))
            | Error e -> fault_of Namespace.error_to_string e);
      ]
  in
  Instance.create registry ~class_name:"nucleus.directory" ~domain:kdom.Domain.id
    [ iface ]

let memory_object t_ref registry kdom =
  let iface =
    Iface.make ~name:"memory"
      [
        Iface.fn2 ~name:"alloc_pages" Iface.Int Iface.Bool ~ret:Vtype.Tint
          (fun ctx count shared ->
            for_caller t_ref ctx (fun t dom ->
                let sharing = if shared then Vmem.Shared else Vmem.Exclusive in
                match Vmem.alloc_pages t.api.Api.vmem dom ~count ~sharing with
                | vaddr -> ok_int vaddr
                | exception (Vmem.Vmem_error m | Invalid_argument m) ->
                  Error (Oerror.Fault m)));
        Iface.fn2 ~name:"free_pages" Iface.Int Iface.Int ~ret:Vtype.Tunit
          (fun ctx vaddr count ->
            for_caller t_ref ctx (fun t dom ->
                match Vmem.free_pages t.api.Api.vmem dom ~vaddr ~count with
                | () -> Ok Value.Unit
                | exception Vmem.Vmem_error m -> Error (Oerror.Fault m)));
        Iface.fn0 ~name:"pages" ~ret:Vtype.Tint (fun ctx ->
            for_caller t_ref ctx (fun t dom ->
                ok_int (Vmem.pages_of t.api.Api.vmem dom)));
      ]
  in
  Instance.create registry ~class_name:"nucleus.memory" ~domain:kdom.Domain.id [ iface ]

let events_object t_ref registry kdom =
  let events () = (Option.get !t_ref).api.Api.events in
  let iface =
    Iface.make ~name:"events"
      [
        Iface.fn0 ~name:"deliveries" ~ret:Vtype.Tint (fun _ ->
            ok_int (Events.deliveries (events ())));
        Iface.fn2 ~name:"callbacks" Iface.Str Iface.Int ~ret:Vtype.Tint (fun _ kind num ->
            match kind with
            | "trap" -> ok_int (Events.callbacks (events ()) (Events.Trap num))
            | "irq" -> ok_int (Events.callbacks (events ()) (Events.Irq num))
            | other ->
              Error
                (Oerror.Type_error
                   (Printf.sprintf "callbacks(\"trap\"|\"irq\", int), not %S" other)));
      ]
  in
  Instance.create registry ~class_name:"nucleus.events" ~domain:kdom.Domain.id [ iface ]

let certification_object t_ref registry kdom =
  let cert () = (Option.get !t_ref).api.Api.certification in
  let iface =
    Iface.make ~name:"certification"
      [
        Iface.fn0 ~name:"stats" ~ret:(Vtype.Tpair (Vtype.Tint, Vtype.Tint)) (fun _ ->
            Ok
              (Value.Pair
                 ( Value.Int (Certsvc.validations (cert ())),
                   Value.Int (Certsvc.failures (cert ())) )));
        Iface.fn0 ~name:"root" ~ret:Vtype.Tstr (fun _ ->
            ok_str (Pm_secure.Principal.id (Certsvc.root (cert ()))));
      ]
  in
  Instance.create registry ~class_name:"nucleus.certification" ~domain:kdom.Domain.id
    [ iface ]

(* ------------------------------------------------------------------ *)

let must_register ns path handle =
  match Namespace.register ns (Path.of_string path) handle with
  | Ok () -> ()
  | Error e -> failwith ("Kernel.boot: " ^ Namespace.error_to_string e)

let boot ?costs ?(cpus = 1) ~root () =
  let machine = Machine.create ?costs ~cpus () in
  let timer = Timer_dev.create machine ~irq_line:0 in
  let nic = Nic.create machine ~irq_line:1 in
  (* two instances of the one block-device model: page-size blocks for
     the pager and the file system, 512-byte blocks under the store *)
  let disk =
    Blkdev.create machine ~name:"disk" ~irq_line:2 ~blocks:512
      ~block_size:(Machine.page_size machine)
  in
  ignore (Console.create machine : Console.t);
  let blkdev =
    Blkdev.create machine ~name:"blkdev" ~irq_line:3 ~blocks:1024 ~block_size:512
  in
  let registry = Registry.create () in
  let ns = Namespace.create () in
  let root_view = View.of_namespace ns in
  let kernel_domain =
    Domain.make ~id:(Mmu.current_context (Machine.mmu machine)) ~name:"kernel"
      ~kind:Domain.Kernel ~view:root_view ()
  in
  let events = Events.create machine in
  let vmem = Vmem.create machine in
  let directory = Directory.create ~machine ~vmem ~registry ~ns in
  let certification = Certsvc.create machine ~root in
  let sched = Scheduler.create (Machine.clock machine) (Machine.costs machine) in
  Scheduler.set_mmu sched (Machine.mmu machine);
  (* one scheduler per CPU; CPU 0's is the kernel's own *)
  let smp = Pm_threads.Smp.create machine ~boot:sched in
  let api =
    { Api.machine; registry; events; vmem; directory; certification; sched;
      kernel_domain }
  in
  let loader = Loader.create api in
  let t_ref = ref None in
  (* created in this order, so handles and the boot journal are stable *)
  let dir_obj = directory_object t_ref registry kernel_domain in
  let mem_obj = memory_object t_ref registry kernel_domain in
  let ev_obj = events_object t_ref registry kernel_domain in
  let cert_obj = certification_object t_ref registry kernel_domain in
  let tracesvc = Tracesvc.create machine in
  let trace_obj = Tracesvc.service_object tracesvc registry kernel_domain in
  let journal_obj = Journalsvc.service_object machine registry kernel_domain in
  let query_obj = Querysvc.service_object machine registry kernel_domain in
  (* the seven services, each exporting the interface it is named after *)
  let services =
    [ ("events", ev_obj); ("memory", mem_obj); ("directory", dir_obj);
      ("certification", cert_obj); ("trace", trace_obj); ("journal", journal_obj);
      ("query", query_obj) ]
  in
  (* the resident kernel: a static (link-time) composition of them *)
  let nucleus =
    Composite.make registry ~class_name:"paramecium.nucleus"
      ~domain:kernel_domain.Domain.id ~mode:Composite.Static ~children:services
      ~exports:
        (List.map
           (fun (name, _) -> { Composite.as_name = name; child = name; iface = name })
           services)
  in
  (* boot binds go through the journal too, so state-at-cycle queries
     can answer for the nucleus services themselves *)
  let boot_register name inst =
    let path = "/nucleus/" ^ name and handle = Instance.handle inst in
    must_register ns path handle;
    let clock = Machine.clock machine in
    Pm_journal.Journal.record
      (Pm_obs.Obs.journal (Clock.obs clock))
      ~kind:Pm_journal.Journal.Bind ~domain:kernel_domain.Domain.id
      ~at:(Clock.now clock)
      ~info:handle ~detail:path
  in
  List.iter (fun (name, inst) -> boot_register name inst) services;
  boot_register "kernel" (Composite.instance nucleus);
  let t =
    { machine; registry; ns; root_view; api; loader; kernel_domain;
      user_domains = []; nic; timer; disk; blkdev; nucleus; tracesvc;
      smp }
  in
  t_ref := Some t;
  jot machine ~kind:Pm_journal.Journal.Domain_up ~domain:kernel_domain.Domain.id
    ~info:kernel_domain.Domain.id ~detail:"kernel";
  t

let create_domain t ~name ?(overrides = []) () =
  let id = Mmu.new_context (Machine.mmu t.machine) in
  let view = View.derive ~overrides t.root_view in
  let dom = Domain.make ~id ~name ~kind:Domain.User ~view () in
  t.user_domains <- dom :: t.user_domains;
  jot t.machine ~kind:Pm_journal.Journal.Domain_up ~domain:id ~info:id ~detail:name;
  dom

let destroy_domain t dom =
  if Domain.is_kernel dom then invalid_arg "Kernel.destroy_domain: kernel domain";
  if not dom.Domain.alive then invalid_arg "Kernel.destroy_domain: already destroyed";
  dom.Domain.alive <- false;
  jot t.machine ~kind:Pm_journal.Journal.Domain_down ~domain:dom.Domain.id
    ~info:dom.Domain.id ~detail:dom.Domain.name;
  (* revoke the domain's instances and drop their names *)
  let ns = t.ns in
  let dead = Hashtbl.create 8 in
  Namespace.iter ns (fun path handle ->
      match Directory.resolve_handle t.api.Api.directory handle with
      | Some inst when inst.Instance.domain = dom.Domain.id ->
        Hashtbl.replace dead path ()
      | _ -> ());
  Hashtbl.iter (fun path () -> ignore (Namespace.unregister ns path)) dead;
  Registry.iter t.api.Api.registry (fun inst ->
      if inst.Instance.domain = dom.Domain.id then Instance.revoke inst);
  (* the proxies it imported go now; their entry pages go with the
     domain's other pages below *)
  Directory.drop_imports t.api.Api.directory dom;
  Events.remove_domain t.api.Api.events dom;
  Vmem.destroy_domain t.api.Api.vmem dom;
  (* make sure the dead context is not current before deleting it *)
  let mmu = Machine.mmu t.machine in
  if Mmu.current_context mmu = dom.Domain.id then
    Mmu.switch_context mmu t.kernel_domain.Domain.id;
  let stray_frames = Mmu.delete_context mmu dom.Domain.id in
  (* frames still mapped raw (e.g. by a pager) go back to the pool *)
  List.iter
    (fun frame ->
      if Pm_machine.Physmem.is_allocated (Machine.phys t.machine) frame then
        Pm_machine.Physmem.release (Machine.phys t.machine) frame)
    stray_frames;
  t.user_domains <- List.filter (fun d -> d != dom) t.user_domains

let register_at t path inst =
  match Directory.register t.api.Api.directory (Path.of_string path) inst with
  | Ok () -> ()
  | Error e -> failwith ("Kernel.register_at: " ^ Namespace.error_to_string e)

let bind t dom path = Api.bind_exn t.api dom (Path.of_string path)

let run t = Pm_threads.Smp.run t.smp

let step t ?(ticks = 1) () =
  (* a bounded budget of 64 dispatches per CPU per tick keeps
     yield-polling threads from starving device progress *)
  for _ = 1 to ticks do
    Machine.tick t.machine;
    ignore (Pm_threads.Smp.run ~budget:64 t.smp)
  done

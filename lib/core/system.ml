module Kernel = Pm_nucleus.Kernel
module Api = Pm_nucleus.Api
module Loader = Pm_nucleus.Loader
module Domain = Pm_nucleus.Domain
module Certsvc = Pm_nucleus.Certsvc
module Authority = Pm_secure.Authority
module Prng = Pm_crypto.Prng
module Policies = Pm_baselines.Policies
module Sandbox = Pm_baselines.Sandbox
module Images = Pm_components.Images
module Netdrv = Pm_components.Netdrv
module Clock = Pm_machine.Clock
module Tracesvc = Pm_nucleus.Tracesvc
module Obs_agent = Pm_obs_agent.Obs_agent
module Chan_svc = Pm_chan.Chan_svc
module Stats_svc = Pm_obs_agent.Stats_svc
module Check_svc = Pm_check_lint.Check_svc
module Machine = Pm_machine.Machine
module Vmem = Pm_nucleus.Vmem
module Directory = Pm_nucleus.Directory
module Journal = Pm_journal.Journal

type t = {
  kernel : Kernel.t;
  authority : Authority.t;
  rng : Prng.t;
  stats : Stats_svc.t;
  check : Check_svc.t;
}

(* close the observability loop: the trace service (inside the nucleus)
   gets its interposer factory from the agent library (above it) *)
let wire_tracing kernel =
  Tracesvc.set_interposer (Kernel.tracesvc kernel)
    (Obs_agent.installer (Kernel.api kernel))

type placement =
  | Certified
  | Online_certified
  | Verified
  | Sandboxed
  | User of Domain.t

type networking = {
  driver : Pm_obj.Instance.t;
  stack : Pm_obj.Instance.t;
  stack_domain : Domain.t;
}

let standard_delegates =
  [
    ("trusted-compiler", Policies.trusted_compiler, Policies.latency_compiler);
    ("prover", Policies.prover, Policies.latency_prover);
    ("test-team", Policies.test_team, Policies.latency_test_team);
    ( "administrator",
      Policies.administrator ~trusted_authors:[ "kernel-team" ],
      Policies.latency_administrator );
  ]

(* the channel factory is published at its conventional name straight
   from boot, like /shared/network *)
let wire_chan kernel =
  Kernel.register_at kernel "/shared/chan"
    (Chan_svc.create (Kernel.api kernel)
       ~domain_of_id:(Kernel.domain_of_id kernel) ())

(* the /stats namespace: kernel-wide accounting at /stats/kernel, one
   directory object per user domain published as domains appear *)
let wire_stats kernel =
  let stats =
    Stats_svc.create (Kernel.api kernel) ~domains:(fun () -> Kernel.domains kernel) ()
  in
  Kernel.register_at kernel "/stats/kernel" (Stats_svc.kernel_object stats);
  stats

(* the composition linter as /nucleus/check, beside /nucleus/trace: any
   domain can bind it and ask for a whole-system consistency pass *)
let wire_check kernel =
  let check =
    Check_svc.create ~machine:(Kernel.machine kernel)
      ~directory:(Kernel.directory kernel) ~events:(Kernel.events kernel)
      ~domains:(fun () -> Kernel.domains kernel)
      ()
  in
  Kernel.register_at kernel "/nucleus/check"
    (Check_svc.service_object check (Kernel.api kernel).Api.registry
       (Kernel.kernel_domain kernel));
  check

(* boot a kernel under [authority] and wire every boot-time service *)
let assemble ?costs ?cpus ~rng authority =
  let kernel = Kernel.boot ?costs ?cpus ~root:(Authority.ca authority) () in
  wire_tracing kernel;
  wire_chan kernel;
  List.iter
    (Certsvc.add_grant (Kernel.certification kernel))
    (Authority.grants authority);
  let stats = wire_stats kernel in
  let check = wire_check kernel in
  { kernel; authority; rng; stats; check }

let create ?(seed = 0xC0FFEE) ?costs ?cpus ?(key_bits = 512) () =
  let rng = Prng.create ~seed in
  let authority = Authority.create rng ~name:"certification-authority" ~key_bits in
  List.iter
    (fun (name, policy, latency) ->
      ignore (Authority.add_delegate authority rng ~name ~policy ~latency ()))
    standard_delegates;
  assemble ?costs ?cpus ~rng authority

let with_authority ~seed authority = assemble ~rng:(Prng.create ~seed) authority

let kernel t = t.kernel
let authority t = t.authority
let rng t = t.rng
let api t = Kernel.api t.kernel
let clock t = Kernel.clock t.kernel
let stats t = t.stats
let check t = t.check
let cpu t = Kernel.cpu t.kernel
let smp t = Kernel.smp t.kernel
let cpus t = Kernel.cpus t.kernel

let install t image ~placement ~at =
  let loader = Kernel.loader t.kernel in
  let now = Clock.now (Kernel.clock t.kernel) in
  match placement with
  | Online_certified ->
    (* consult the delegate chain *now*, on the kernel's time *)
    let outcome =
      Authority.certify t.authority image.Loader.meta ~code:image.Loader.code ~now
    in
    Clock.advance (Kernel.clock t.kernel) outcome.Authority.elapsed;
    Clock.bump (Kernel.clock t.kernel) Clock.Online_certification;
    (match outcome.Authority.certificate with
    | None -> Error "on-line certification failed: no delegate accepted"
    | Some cert ->
      Loader.publish loader { image with Loader.cert = Some cert };
      Result.map_error Loader.load_error_to_string
        (Loader.load loader
           ~name:image.Loader.meta.Pm_secure.Meta.name
           ~into:(Kernel.kernel_domain t.kernel)
           ~at:(Pm_names.Path.of_string at) ()))
  | Certified ->
    let image, trail = Images.certify t.authority ~now image in
    if image.Loader.cert = None then
      Error
        (Printf.sprintf "no delegate certified %S (trail: %s)"
           image.Loader.meta.Pm_secure.Meta.name
           (String.concat ", "
              (List.map
                 (fun (d, v) ->
                   Printf.sprintf "%s=%s" d
                     (match v with
                     | Authority.Accept -> "accept"
                     | Authority.Reject r -> "reject:" ^ r
                     | Authority.Cannot_decide -> "cannot-decide"))
                 trail)))
    else begin
      Loader.publish loader image;
      Result.map_error Loader.load_error_to_string
        (Loader.load loader
           ~name:image.Loader.meta.Pm_secure.Meta.name
           ~into:(Kernel.kernel_domain t.kernel)
           ~at:(Pm_names.Path.of_string at) ())
    end
  | Verified ->
    (* the third trust mechanism: no certificate attached, no signer
       consulted — the loader's bytecode verifier must prove the code *)
    Loader.publish loader { image with Loader.cert = None };
    Result.map_error Loader.load_error_to_string
      (Loader.load loader
         ~name:image.Loader.meta.Pm_secure.Meta.name
         ~into:(Kernel.kernel_domain t.kernel)
         ~at:(Pm_names.Path.of_string at) ~verify:true ())
  | Sandboxed ->
    Loader.publish loader image;
    let registry = (api t).Api.registry in
    Result.map_error Loader.load_error_to_string
      (Loader.load loader
         ~name:image.Loader.meta.Pm_secure.Meta.name
         ~into:(Kernel.kernel_domain t.kernel)
         ~at:(Pm_names.Path.of_string at)
         ~sandbox:(Sandbox.for_loader registry) ())
  | User dom ->
    Loader.publish loader image;
    Result.map_error Loader.load_error_to_string
      (Loader.load loader
         ~name:image.Loader.meta.Pm_secure.Meta.name
         ~into:dom
         ~at:(Pm_names.Path.of_string at) ())

(* the affine fuel bound proven at [name]'s Verified install, if any:
   what the kernel meters that component's runs against *)
let verified_fuel t name = Loader.verified_fuel (Kernel.loader t.kernel) name

let install_exn t image ~placement ~at =
  match install t image ~placement ~at with
  | Ok inst -> inst
  | Error e -> failwith ("System.install: " ^ e)

(* ------------------------------------------------------------------ *)
(* Transactional composition: install + register + interpose grouped    *)
(* into one atomic unit. Each step pushes an undo thunk; on failure the *)
(* thunks run newest-first and the system rolls back to the allocation  *)
(* mark taken when the transaction began, so a half-wired component is  *)
(* never observable — not in the namespace, not in the page tables, not *)
(* to the linter.                                                       *)
(* ------------------------------------------------------------------ *)

type txn = {
  tsys : t;
  tid : int;
  tname : string;
  mutable undos : (unit -> unit) list; (* newest first *)
  mark : Vmem.mark;
}

let journal t = Pm_obs.Obs.journal (Clock.obs (Kernel.clock t.kernel))

let jot_txn t ~kind ~info ~detail =
  let clock = Kernel.clock t.kernel in
  Journal.record (journal t) ~kind
    ~domain:(Kernel.kernel_domain t.kernel).Domain.id
    ~at:(Clock.now clock) ~info ~detail

let txn_install txn image ~placement ~at =
  match install txn.tsys image ~placement ~at with
  | Ok inst ->
    txn.undos <-
      (fun () ->
        ignore
          (Loader.unload
             (Kernel.loader txn.tsys.kernel)
             (Pm_names.Path.of_string at)))
      :: txn.undos;
    Ok inst
  | Error _ as e -> e

let txn_register txn path inst =
  let dir = Kernel.directory txn.tsys.kernel in
  let p = Pm_names.Path.of_string path in
  match Directory.register dir p inst with
  | Ok () ->
    txn.undos <- (fun () -> ignore (Directory.unregister dir p)) :: txn.undos;
    Ok ()
  | Error e -> Error (Pm_names.Namespace.error_to_string e)

let txn_interpose txn path agent =
  let dir = Kernel.directory txn.tsys.kernel in
  let p = Pm_names.Path.of_string path in
  match Directory.replace dir p agent with
  | Ok old ->
    txn.undos <-
      (fun () -> ignore (Directory.unreplace dir p ~agent ~restore:old))
      :: txn.undos;
    Ok old
  | Error e -> Error (Directory.bind_error_to_string e)

let transact t name f =
  let j = journal t in
  (* a deterministic transaction id: begin-events recorded so far *)
  let tid = Journal.count j Journal.Txn_begin + 1 in
  jot_txn t ~kind:Journal.Txn_begin ~info:tid ~detail:name;
  let txn =
    { tsys = t; tid; tname = name; undos = []; mark = Vmem.mark (Kernel.vmem t.kernel) }
  in
  let rollback reason =
    List.iter (fun undo -> try undo () with _ -> ()) txn.undos;
    (* what no undo returned: pages the transaction's own code or a
       constructor that raised allocated, and the proxies it bound *)
    Directory.rollback (Kernel.directory t.kernel) txn.mark;
    jot_txn t ~kind:Journal.Txn_abort ~info:txn.tid
      ~detail:(Printf.sprintf "%s: %s" txn.tname reason);
    Error reason
  in
  match f txn with
  | Ok v ->
    jot_txn t ~kind:Journal.Txn_commit ~info:txn.tid ~detail:txn.tname;
    Ok v
  | Error e -> rollback e
  | exception e -> rollback (Printexc.to_string e)

let new_domain t name =
  let dom = Kernel.create_domain t.kernel ~name () in
  ignore (Stats_svc.publish t.stats);
  dom

let setup_networking t ~placement ~addr ?(loopback = false) () =
  let config = { Netdrv.default_config with Netdrv.loopback } in
  (* the driver itself is always a certified kernel component, authored by
     the kernel team so the administrator delegate accepts it *)
  let driver_image =
    Images.image ~name:"netdrv" ~size:16_384 ~author:"kernel-team"
      (Images.netdrv_construct ~config ())
  in
  let driver = install_exn t driver_image ~placement:Certified ~at:"/services/netdrv" in
  Kernel.register_at t.kernel "/shared/network" driver;
  let stack_domain =
    match placement with
    | User dom -> dom
    | Certified | Online_certified | Verified | Sandboxed ->
      Kernel.kernel_domain t.kernel
  in
  let stack_image =
    Images.image ~name:"protostack" ~size:24_576 ~author:"kernel-team"
      ~type_safe:true
      (Images.stack_construct ~addr ~driver_path:"/services/netdrv")
  in
  let stack = install_exn t stack_image ~placement ~at:"/services/stack" in
  (* point the driver's receive path at the stack *)
  let kdom = Kernel.kernel_domain t.kernel in
  let ctx = Kernel.ctx t.kernel kdom in
  (match
     Pm_obj.Invoke.call ctx driver ~iface:"netdev" ~meth:"attach"
       [ Pm_obj.Value.Str "/services/stack" ]
   with
  | Ok _ -> ()
  | Error e ->
    failwith ("System.setup_networking: attach failed: " ^ Pm_obj.Oerror.to_string e));
  { driver; stack; stack_domain }

(* The full channel-backed data path (Pm_net): per-port receive rings
   out of the stack, one MPSC transmit group into it, published as the
   /shared/net factory with endpoints at /net/<port>/{rx,tx}. *)
let channel_net t net ?rx_slots () =
  let api = Kernel.api t.kernel in
  let nsc =
    Pm_net.Netstack_chan.create api ~stack:net.stack
      ~stack_domain:net.stack_domain ?rx_slots ()
  in
  let svc =
    Pm_net.Netsvc.create api nsc
      ~domain_of_id:(Kernel.domain_of_id t.kernel) ()
  in
  Kernel.register_at t.kernel "/shared/net" svc;
  (nsc, svc)

(* Rewire the receive path over a shared-memory channel: the driver's
   per-frame sink becomes a same-domain ring enqueue and the stack gets
   bursts through one rx_batch invocation per doorbell — the E4 mailbox
   hop without a proxy crossing per frame. *)
let channel_rx t net () =
  let kdom = Kernel.kernel_domain t.kernel in
  let api = Kernel.api t.kernel in
  let tx, chan =
    Chan_svc.bridge api ~producer:kdom ~consumer:net.stack_domain ~stack:net.stack ()
  in
  Kernel.register_at t.kernel "/services/chan-rx" tx;
  let ctx = Kernel.ctx t.kernel kdom in
  (match
     Pm_obj.Invoke.call ctx net.driver ~iface:"netdev" ~meth:"attach"
       [ Pm_obj.Value.Str "/services/chan-rx" ]
   with
  | Ok _ -> ()
  | Error e ->
    failwith ("System.channel_rx: attach failed: " ^ Pm_obj.Oerror.to_string e));
  chan

(* ------------------------------------------------------------------ *)
(* Storage: the Pm_store stack                                         *)
(* ------------------------------------------------------------------ *)

type storage = {
  blk_driver : Pm_obj.Instance.t;
  partition : Pm_obj.Instance.t;
  block_cache : Pm_obj.Instance.t;
  log : Pm_obj.Instance.t;
  store_domain : Domain.t;
}

(* The canonical partition→cache→log stack over the machine's block
   device, each layer wired to the one below by /store path so any of
   them can be interposed or replaced by name. The driver is always a
   certified kernel component (it programs DMA); the policy layers go
   wherever [placement] says. *)
let setup_store t ~placement ?(count = 256) ?(cache_capacity = 32) () =
  let open Pm_store in
  (* Verified placement runs the loader's bytecode verifier over the
     image; give the policy layers a real, provable program instead of
     the synthesized filler Images.image attaches *)
  let verifiable image =
    match placement with
    | Verified -> (
      match Pm_vm.Filterc.compile_string "byte[19] == 7" with
      | Ok p -> { image with Pm_nucleus.Loader.code = Pm_vm.Vm.encode p }
      | Error e -> failwith ("System.setup_store: filter compile failed: " ^ e))
    | Certified | Online_certified | Sandboxed | User _ -> image
  in
  let blk_driver =
    install_exn t (Store_svc.driver_image ()) ~placement:Certified
      ~at:"/services/blkdrv"
  in
  Kernel.register_at t.kernel "/store/blkdrv" blk_driver;
  let store_domain =
    match placement with
    | User dom -> dom
    | Certified | Online_certified | Verified | Sandboxed ->
      Kernel.kernel_domain t.kernel
  in
  let partition =
    install_exn t
      (verifiable
         (Store_svc.partition_image ~name:"part0" ~lower:"/store/blkdrv" ~base:0
            ~count ()))
      ~placement ~at:"/store/part0"
  in
  let block_cache =
    install_exn t
      (verifiable
         (Store_svc.cache_image ~name:"cache0" ~lower:"/store/part0"
            ~capacity:cache_capacity ()))
      ~placement ~at:"/store/cache0"
  in
  let log =
    install_exn t
      (verifiable (Store_svc.log_image ~name:"log0" ~lower:"/store/cache0" ()))
      ~placement ~at:"/store/log0"
  in
  let machine = (api t).Api.machine in
  List.iter
    (fun name ->
      match Storereg.find ~machine name with
      | Some e -> Storereg.set_bound e (Some ("/store/" ^ name))
      | None -> ())
    [ "blkdrv"; "part0"; "cache0"; "log0" ];
  (* per-component counters beside /stats/kernel: cache hits/dirty, log
     appends, blk_* driver counters at /stats/store.<name> *)
  ignore (Store_svc.publish_stats (api t));
  let svc =
    Store_svc.create (api t) ~domain_of_id:(Kernel.domain_of_id t.kernel) ()
  in
  Kernel.register_at t.kernel "/shared/store" svc;
  { blk_driver; partition; block_cache; log; store_domain }

(* The boot order matters: E20's and E21's numbers and the kv recordings
   depend on it. *)
let setup_kv t ~placement ~cache_capacity =
  let fail what e =
    failwith ("System.setup_kv: " ^ what ^ ": " ^ Pm_obj.Oerror.to_string e)
  in
  let net = setup_networking t ~placement:Certified ~addr:42 ~loopback:true () in
  let nsc, _svc = channel_net t net () in
  ignore (setup_store t ~placement ~cache_capacity ());
  let kdom = Kernel.kernel_domain t.kernel in
  let kv = Pm_store.Kv.create (api t) kdom ~name:"kv0" ~log:"/store/log0" () in
  (match Pm_store.Kv.serve (api t) kdom ~kv ~net:nsc ~port:70 () with
  | Ok _ -> ()
  | Error e -> fail "serve" e);
  let cdom = new_domain t "kvclient" in
  match Pm_store.Kv.client (api t) cdom ~net:nsc ~port:71 ~dst:42 ~dport:70 with
  | Ok client -> (kv, client)
  | Error e -> fail "client" e

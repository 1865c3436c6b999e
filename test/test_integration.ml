(* End-to-end integration tests: full-system packet flows under every
   placement, reconfiguration scenarios from the paper, baseline
   comparisons, and failure injection. *)

open Paramecium

let value = Alcotest.testable Value.pp Value.equal

let sys_fixture ?costs () = System.create ?costs ~key_bits:384 ()

let stack_call k dom stack meth args =
  Invoke.call_exn (Kernel.ctx k dom) stack ~iface:"stack" ~meth args

let make_packet ctx ~src ~dst ~sport ~dport payload =
  Wire.frame ctx ~src ~dst ~ttl:8 ~proto:Stack.proto_transport
    ~sport ~dport (Bytes.of_string payload)

(* [body] followed by its fcs, as a sending device leaves a frame on the
   wire: the receiving NIC drops any other *)
let sealed body =
  let b = Bytes.of_string (body ^ String.make Nic.fcs_len '\000') in
  Nic.seal b;
  Bytes.to_string b

(* push [n] packets through a configured system; returns cycles consumed
   and the number delivered *)
let pump_packets sys net ~n ~payload_size =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let consume_dom =
    match net.System.stack_domain with d when Domain.is_kernel d -> kdom | d -> d
  in
  ignore (stack_call k consume_dom net.System.stack "bind_port" [ Value.Int 7 ]);
  let ctx = Kernel.ctx k kdom in
  let payload = String.make payload_size 'p' in
  let packet = Bytes.to_string (make_packet ctx ~src:13 ~dst:42 ~sport:9 ~dport:7 payload) in
  let clock = Kernel.clock k in
  let start = Clock.now clock in
  for _ = 1 to n do
    Nic.inject (Kernel.nic k) packet
  done;
  Kernel.step k ~ticks:(n + 4) ();
  let cycles = Clock.now clock - start in
  let delivered =
    match stack_call k consume_dom net.System.stack "recv" [ Value.Int 7 ] with
    | Value.List items -> List.length items
    | _ -> 0
  in
  (cycles, delivered)

(* --- placements end to end ------------------------------------------------ *)

let test_packet_flow_all_placements () =
  let run placement =
    let sys = sys_fixture () in
    let net =
      match placement with
      | `User ->
        let dom = System.new_domain sys "netuser" in
        System.setup_networking sys ~placement:(System.User dom) ~addr:42 ()
      | `Certified -> System.setup_networking sys ~placement:System.Certified ~addr:42 ()
      | `Sandboxed -> System.setup_networking sys ~placement:System.Sandboxed ~addr:42 ()
    in
    pump_packets sys net ~n:10 ~payload_size:256
  in
  let c_cert, d_cert = run `Certified in
  let c_sand, d_sand = run `Sandboxed in
  let c_user, d_user = run `User in
  Alcotest.(check int) "certified delivers all" 10 d_cert;
  Alcotest.(check int) "sandboxed delivers all" 10 d_sand;
  Alcotest.(check int) "user delivers all" 10 d_user;
  (* the paper's ordering: certified in-kernel is cheapest, sandboxing
     pays per-access checks, user space pays cross-domain crossings *)
  Alcotest.(check bool)
    (Printf.sprintf "certified (%d) < sandboxed (%d)" c_cert c_sand)
    true (c_cert < c_sand);
  Alcotest.(check bool)
    (Printf.sprintf "certified (%d) < user (%d)" c_cert c_user)
    true (c_cert < c_user)

let test_interposed_monitor_sees_everything () =
  (* the paper's monitoring scenario on /shared/network, end to end *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let api = Kernel.api k in
  let agent = Interpose.packet_monitor api kdom ~target:net.System.driver in
  (match Interpose.attach api ~path:"/services/netdrv" ~agent with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* the stack binds the driver lazily by name, so its next send goes
     through the agent *)
  let ctx = Kernel.ctx k kdom in
  for i = 1 to 5 do
    ignore
      (stack_call k kdom net.System.stack "send"
         [ Value.Int 13; Value.Int 1; Value.Int 2;
           Stack.view (Bytes.make (i * 10) 'x') ~off:0 ~len:(i * 10) ])
  done;
  Kernel.step k ~ticks:8 ();
  Alcotest.check value "all sends observed" (Value.Int 5)
    (Invoke.call_exn ctx agent ~iface:"monitor" ~meth:"calls" []);
  (match Invoke.call_exn ctx agent ~iface:"monitor" ~meth:"blob_bytes" [] with
  | Value.Int b ->
    (* 10+20+30+40+50 payload bytes plus per-frame header overhead *)
    Alcotest.(check bool) (Printf.sprintf "bytes observed: %d" b) true
      (b >= 150 + (5 * Wire.stack_overhead))
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  Alcotest.(check int) "frames still reached the wire" 5
    (List.length (Nic.take_transmitted (Kernel.nic k)))

let test_namespace_override_isolates_domains () =
  (* two user domains: one gets the real network, one a monitored view;
     only the overridden domain's traffic is observed *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let api = Kernel.api k in
  let agent = Interpose.packet_monitor api kdom ~target:net.System.driver in
  Kernel.register_at k "/services/monitored-netdrv" agent;
  let plain = Kernel.create_domain k ~name:"plain" () in
  let watched =
    Kernel.create_domain k ~name:"watched"
      ~overrides:[ (Path.of_string "/shared/network", Instance.handle agent) ]
      ()
  in
  let send dom =
    let bound = Kernel.bind k dom "/shared/network" in
    ignore
      (Invoke.call_exn (Kernel.ctx k dom) bound ~iface:"netdev" ~meth:"send"
         [ Value.Blob (Bytes.of_string "hello") ])
  in
  send plain;
  send watched;
  let ctx = Kernel.ctx k kdom in
  Alcotest.check value "only the watched domain's traffic" (Value.Int 1)
    (Invoke.call_exn ctx agent ~iface:"monitor" ~meth:"calls" []);
  Kernel.step k ~ticks:2 ();
  Alcotest.(check int) "both frames went out" 2
    (List.length (Nic.take_transmitted (Kernel.nic k)))

(* --- certification failure injection ---------------------------------------- *)

let bad_construct (api : Api.t) (dom : Domain.t) =
  Instance.create api.Api.registry ~class_name:"evil" ~domain:dom.Domain.id []

let test_tampered_component_cannot_enter_kernel () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let image = Images.image ~name:"evil" ~size:4096 ~type_safe:true bad_construct in
  let image, _ = Images.certify (System.authority sys) ~now:0 image in
  (* flip one bit anywhere after certification *)
  List.iter
    (fun at ->
      let tampered = { image with Loader.code = Codegen.tamper image.Loader.code ~at } in
      Loader.publish (Kernel.loader k) tampered;
      match
        Loader.load (Kernel.loader k) ~name:"evil" ~into:(Kernel.kernel_domain k)
          ~at:(Path.of_string "/svc/evil") ()
      with
      | Error (Loader.Validation_failed Validator.Digest_mismatch) -> ()
      | _ -> Alcotest.failf "tamper at byte %d admitted!" at)
    [ 0; 1; 2048; 4095 ]

let test_revoked_delegate_stops_admitting () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let auth = System.authority sys in
  let image = Images.image ~name:"c" ~size:1024 ~type_safe:true bad_construct in
  let image, _ = Images.certify auth ~now:0 image in
  (* works before revocation *)
  Loader.publish (Kernel.loader k) image;
  (match
     Loader.load (Kernel.loader k) ~name:"c" ~into:(Kernel.kernel_domain k)
       ~at:(Path.of_string "/svc/c1") ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pre-revocation load failed: %s" (Loader.load_error_to_string e));
  (* revoke the compiler delegate: the same certificate stops working *)
  (match image.Loader.cert with
  | Some cert ->
    Certsvc.revoke (Kernel.certification k)
      (Principal.id cert.Certificate.signer)
  | None -> Alcotest.fail "fixture produced no cert");
  (match
     Loader.load (Kernel.loader k) ~name:"c" ~into:(Kernel.kernel_domain k)
       ~at:(Path.of_string "/svc/c2") ()
   with
  | Error (Loader.Validation_failed (Validator.Revoked_principal _)) -> ()
  | _ -> Alcotest.fail "revoked signer must be refused")

let test_unknown_authority_rejected () =
  (* component certified by a *different* authority: chain check fails *)
  let sys_a = sys_fixture () in
  let sys_b = System.create ~seed:999 ~key_bits:384 () in
  let k = System.kernel sys_a in
  let image = Images.image ~name:"foreign" ~size:1024 ~type_safe:true bad_construct in
  let image, _ = Images.certify (System.authority sys_b) ~now:0 image in
  Loader.publish (Kernel.loader k) image;
  (match
     Loader.load (Kernel.loader k) ~name:"foreign" ~into:(Kernel.kernel_domain k)
       ~at:(Path.of_string "/svc/f") ()
   with
  | Error (Loader.Validation_failed (Validator.Untrusted_signer _)) -> ()
  | _ -> Alcotest.fail "foreign authority must be refused")

let test_spin_model_trusted_compiler () =
  (* SPIN as the paper describes it: delegate certification to the
     type-safe-language compiler; its output enters the kernel with no
     run-time checks *)
  let sys = sys_fixture () in
  let spin_image =
    Images.image ~name:"spin-ext" ~size:2048 ~type_safe:true bad_construct
  in
  let inst = System.install_exn sys spin_image ~placement:System.Certified ~at:"/svc/spin" in
  Alcotest.(check bool) "not sandboxed" false (Sandbox.is_sandboxed inst);
  (* the same component *without* the compiler's blessing and an untrusted
     author has no path into the kernel except the sandbox *)
  let unsafe_image =
    Images.image ~name:"raw-ext" ~size:2048 ~author:"rando" bad_construct
  in
  (match System.install sys unsafe_image ~placement:System.Certified ~at:"/svc/raw" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unvouched component must not enter the kernel");
  let inst2 = System.install_exn sys unsafe_image ~placement:System.Sandboxed ~at:"/svc/raw" in
  Alcotest.(check bool) "sandboxed" true (Sandbox.is_sandboxed inst2)

(* --- device-level failure injection ------------------------------------------ *)

let test_rx_ring_overrun_drops_not_crashes () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let config = { Netdrv.default_config with Netdrv.rx_buffers = 2 } in
  let driver = Netdrv.create (Kernel.api k) kdom ~config () in
  Kernel.register_at k "/services/netdrv" driver;
  let ctx = Kernel.ctx k kdom in
  (* flood: many packets, few buffers, no ticks in between *)
  for _ = 1 to 20 do
    Nic.inject (Kernel.nic k) (sealed "flood")
  done;
  Kernel.step k ~ticks:30 ();
  (match Invoke.call_exn ctx driver ~iface:"netdev" ~meth:"dropped" [] with
  | Value.Int d -> Alcotest.(check bool) (Printf.sprintf "drops counted: %d" d) true (d = 0)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (* with interrupts disabled the ring really overruns *)
  let sys2 = sys_fixture () in
  let k2 = System.kernel sys2 in
  (* no driver at all: enable rx via raw io so packets arrive unattended *)
  let nic2 = Kernel.nic k2 in
  Machine.io_write (Kernel.machine k2) (Nic.io_base nic2) 1;
  for _ = 1 to 5 do
    Nic.inject nic2 (sealed "lost")
  done;
  for _ = 1 to 6 do
    Machine.tick (Kernel.machine k2)
  done;
  Alcotest.(check int) "unattended packets dropped" 5
    (Machine.io_read (Kernel.machine k2) (Nic.io_base nic2 + 32));
  (* a driver cannot post more buffers than the device's ring holds *)
  Alcotest.check_raises "more buffers than the rx ring"
    (Invalid_argument "Netdrv.create: bad rx_buffers") (fun () ->
      ignore
        (Netdrv.create (Kernel.api k2) (Kernel.kernel_domain k2)
           ~config:{ Netdrv.default_config with Netdrv.rx_buffers = Nic.rx_slots + 1 }
           ()))

let test_component_crash_contained () =
  (* a component whose method raises: the object layer reports Fault-free
     error handling at the thread level; the kernel survives *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let crasher =
    Instance.create api.Api.registry ~class_name:"crasher" ~domain:kdom.Domain.id
      [
        Iface.make ~name:"boom"
          [
            Iface.meth ~name:"go" ~args:[] ~ret:Vtype.Tunit (fun _ _ ->
                failwith "component bug");
          ];
      ]
  in
  Kernel.register_at k "/svc/crasher" crasher;
  let sched = Kernel.sched k in
  ignore
    (Scheduler.spawn sched ~name:"victim" (fun () ->
         ignore
           (Invoke.call (Kernel.ctx k kdom) crasher ~iface:"boom" ~meth:"go" [])));
  ignore (Kernel.run k);
  Alcotest.(check int) "crash contained to the thread" 1 (Scheduler.stats sched `Crashes);
  (* the kernel still works *)
  let ping = Kernel.bind k kdom "/nucleus/directory" in
  (match
     Invoke.call_exn (Kernel.ctx k kdom) ping ~iface:"directory" ~meth:"list"
       [ Value.Str "/svc" ]
   with
  | Value.List _ -> ()
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

(* --- scheduling / events integration ------------------------------------------ *)

let test_interrupt_popup_blocking_pipeline () =
  (* rx interrupt wakes a consumer thread through a semaphore: the popup
     promotes, the consumer runs, end to end under Kernel.step *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let sched = Kernel.sched k in
  let sem = Sync.Semaphore.create 0 in
  let handled = ref 0 in
  ignore
    (Events.register_popup (Kernel.events k) (Events.Irq 7) ~domain:kdom ~sched
       (fun _ ->
         (* blocks: the proto-thread must be promoted *)
         Sync.Semaphore.acquire sem;
         incr handled));
  Machine.raise_irq (Kernel.machine k) 7;
  Machine.raise_irq (Kernel.machine k) 7;
  Alcotest.(check int) "both promoted" 2 (Scheduler.stats sched `Promotions);
  Alcotest.(check int) "nothing handled yet" 0 !handled;
  Sync.Semaphore.release sem;
  Sync.Semaphore.release sem;
  ignore (Kernel.run k);
  Alcotest.(check int) "both completed" 2 !handled

let test_timer_driven_preemption_signal () =
  (* the timer device drives periodic events into a popup that feeds a
     tick counter — the classic clock-tick pipeline *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let ticks = ref 0 in
  ignore
    (Events.register_popup (Kernel.events k) (Events.Irq 0) ~domain:kdom
       ~sched:(Kernel.sched k) (fun _ -> incr ticks));
  let base = Timer_dev.io_base (Kernel.timer k) in
  Machine.io_write (Kernel.machine k) base 2 (* period *);
  Machine.io_write (Kernel.machine k) (base + 4) 3 (* enable periodic *);
  Kernel.step k ~ticks:10 ();
  Alcotest.(check int) "five timer events" 5 !ticks

(* --- cost-model sanity across the whole system --------------------------------- *)

let test_cross_domain_tax_visible_in_counters () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let dom = System.new_domain sys "u" in
  let net = System.setup_networking sys ~placement:(System.User dom) ~addr:42 () in
  ignore (pump_packets sys net ~n:5 ~payload_size:128);
  let clock = Kernel.clock k in
  Alcotest.(check bool) "cross-domain calls happened" true
    (Clock.counter clock "cross_domain_call" >= 5);
  Alcotest.(check bool) "proxy faults happened" true
    (Clock.counter clock "proxy_fault" >= 5);
  Alcotest.(check bool) "context switches happened" true
    (Clock.counter clock "context_switch" >= 10)

let test_sandbox_tax_scales_with_packet_size () =
  let run payload_size =
    let sys = sys_fixture () in
    let net = System.setup_networking sys ~placement:System.Sandboxed ~addr:42 () in
    ignore (pump_packets sys net ~n:5 ~payload_size);
    Clock.counter (Kernel.clock (System.kernel sys)) "sfi_check"
  in
  let small = run 64 in
  let large = run 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "more checks for bigger packets (%d vs %d)" small large)
    true
    (large > small * 4)

(* --- observability end to end -------------------------------------------------- *)

let test_tracing_whole_workload () =
  (* a user domain drives /nucleus/trace (through a proxy), a full packet
     workload runs traced, and the numbers it reports are consistent *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let udom = System.new_domain sys "observer" in
  let trace = Kernel.bind k udom "/nucleus/trace" in
  Alcotest.(check bool) "trace service proxied" true (Proxy.is_proxy trace);
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  let uctx = Kernel.ctx k udom in
  (match Invoke.call uctx trace ~iface:"trace" ~meth:"start" [] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "start");
  ignore (pump_packets sys net ~n:5 ~payload_size:128);
  let obs = Clock.obs (Kernel.clock k) in
  Alcotest.(check bool) "spans were recorded" true
    (Journal.count (Obs.journal obs) Journal.Span_exit > 5);
  (* the per-packet dispatch latency histogram exists and is sane *)
  (match
     Metrics.summary (Obs.metrics obs)
       ~domain:(Kernel.kernel_domain k).Domain.id "invoke.dispatch"
   with
  | Some s ->
    Alcotest.(check bool) "dispatch samples" true (s.Metrics.count >= 5);
    Alcotest.(check bool) "latency ordering" true
      (s.Metrics.min <= s.Metrics.p50 && s.Metrics.p50 <= s.Metrics.max)
  | None -> Alcotest.fail "no invoke.dispatch histogram");
  Alcotest.(check bool) "event delivery histogram" true
    (Metrics.summary (Obs.metrics obs) ~domain:(Kernel.kernel_domain k).Domain.id
       "events.irq"
    <> None);
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  (match Invoke.call uctx trace ~iface:"trace" ~meth:"snapshot" [] with
  | Ok (Value.Str text) ->
    Alcotest.(check bool) "snapshot crosses the domain boundary" true
      (String.length text > 0)
  | _ -> Alcotest.fail "snapshot");
  match Invoke.call uctx trace ~iface:"trace" ~meth:"stop" [] with
  | Ok Value.Unit -> Alcotest.(check bool) "stopped" false (Obs.enabled obs)
  | _ -> Alcotest.fail "stop"

(* --- the one argument check ------------------------------------------- *)

(* A well-typed sample of [ty], and a value of another type. *)
let rec sample = function
  | Vtype.Tunit | Vtype.Tany -> Value.Unit
  | Vtype.Tbool -> Value.Bool false
  | Vtype.Tint -> Value.Int 0
  | Vtype.Tstr -> Value.Str ""
  | Vtype.Tblob -> Value.Blob Bytes.empty
  | Vtype.Thandle -> Value.Handle 0
  | Vtype.Tlist _ -> Value.List []
  | Vtype.Tpair (a, b) -> Value.Pair (sample a, sample b)

let mistyped = function Vtype.Tint -> Value.Str "x" | _ -> Value.Int 0

(* Boot the store, the net, chan and store factories and a KV component,
   then call every method of every interface of every bound object with
   one extra argument, and again with each non-any argument replaced by
   a value of another type: Invoke is the one check, so every call is a
   Type_error, and none reaches a body or raises. *)
let test_every_method_checks_its_arguments () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let udom = System.new_domain sys "walker" in
  let ctx = Kernel.ctx k kdom in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let _, netf = System.channel_net sys net () in
  ignore (System.setup_store sys ~placement:System.Certified ());
  let setup inst ~iface ~meth args = ignore (Invoke.call_exn ctx inst ~iface ~meth args) in
  setup (Kernel.bind k kdom "/shared/store") ~iface:"store.factory" ~meth:"kv"
    [ Value.Str "kv0"; Value.Str "/store/log0" ];
  ignore (Store_svc.publish_stats (Kernel.api k));
  setup netf ~iface:"netfactory" ~meth:"bind" [ Value.Int 70 ];
  let chanf = Kernel.bind k kdom "/shared/chan" in
  setup chanf ~iface:"chanfactory" ~meth:"create"
    [ Value.Str "pipe"; Value.Int 4; Value.Int 64 ];
  ignore
    (Invoke.call_exn (Kernel.ctx k udom) chanf ~iface:"chanfactory" ~meth:"accept"
       [ Value.Str "pipe" ]);
  ignore (Stats_svc.publish (System.stats sys));
  let objects = Hashtbl.create 64 in
  Namespace.iter
    (Directory.namespace (Kernel.directory k))
    (fun _ handle ->
      match Directory.resolve_handle (Kernel.directory k) handle with
      | Some inst when not inst.Instance.revoked -> Hashtbl.replace objects handle inst
      | _ -> ());
  let ifaces = Hashtbl.create 64 and calls = ref 0 in
  Hashtbl.iter
    (fun _ inst ->
      List.iter
        (fun (i : Iface.t) ->
          Hashtbl.replace ifaces i.Iface.name ();
          List.iter
            (fun (m : Iface.meth) ->
              let args = List.map sample m.Iface.msig.Vtype.args in
              let bad =
                (args @ [ Value.Unit ])
                :: List.concat
                     (List.mapi
                        (fun n ty ->
                          if ty = Vtype.Tany then []
                          else [ List.mapi (fun j v -> if j = n then mistyped ty else v) args ])
                        m.Iface.msig.Vtype.args)
              in
              List.iter
                (fun bad ->
                  incr calls;
                  match Invoke.call ctx inst ~iface:i.Iface.name ~meth:m.Iface.mname bad with
                  | Error (Oerror.Type_error _) -> ()
                  | Ok _ | Error _ ->
                    Alcotest.failf "%s.%s accepted %s" i.Iface.name m.Iface.mname
                      (Value.to_string (Value.List bad))
                  | exception e ->
                    Alcotest.failf "%s.%s raised %s" i.Iface.name m.Iface.mname
                      (Printexc.to_string e))
                bad)
            i.Iface.methods)
        inst.Instance.interfaces)
    objects;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " walked") true (Hashtbl.mem ifaces name))
    [ "directory"; "memory"; "events"; "certification"; "trace"; "journal"; "query";
      "check"; "stats"; "stats.domain"; "stats.store"; "netdev"; "stack"; "netfactory";
      "net.tx"; "chan.tx"; "chan.rx"; "chanfactory"; "store.factory"; "block"; "log";
      "kv" ];
  Alcotest.(check bool) (Printf.sprintf "%d ill-typed calls" !calls) true (!calls > 200)

(* --- hermetic systems: no state outlives or crosses its system ------------ *)

let journal_of sys = Obs.journal (Clock.obs (System.clock sys))

(* Boot networking, the channel data path and a store stack, then keep
   only weak pointers to the machine and the observability sink. *)
let[@inline never] boot_and_drop () =
  let sys = sys_fixture () in
  let net =
    System.setup_networking sys ~placement:System.Certified ~addr:42 ~loopback:true ()
  in
  ignore (System.channel_net sys net ());
  ignore (System.setup_store sys ~placement:System.Certified ());
  let machine = Weak.create 1 and obs = Weak.create 1 in
  Weak.set machine 0 (Some (Kernel.machine (System.kernel sys)));
  Weak.set obs 0 (Some (Clock.obs (System.clock sys)));
  (machine, obs)

let test_dropped_system_freed () =
  let machine, obs = boot_and_drop () in
  Gc.full_major ();
  Alcotest.(check bool) "machine collected" false (Weak.check machine 0);
  Alcotest.(check bool) "obs collected" false (Weak.check obs 0)

(* Run [f] with every debug-level log message captured. *)
let capturing_debug f =
  let got = ref [] in
  let report _src level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun s ->
            if level = Logs.Debug then got := s :: !got;
            over ();
            k ())
          fmt)
  in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Debug);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level)
    f;
  List.rev !got

(* An object error dumps the black box of the system it happened in,
   not of whichever system booted last. *)
let test_crash_dump_reads_failing_system () =
  let older = sys_fixture () in
  let newer = System.create ~seed:999 ~key_bits:384 () in
  let k = System.kernel older in
  (* flight history the newer system does not have *)
  for _ = 1 to 3 do
    ignore (Machine.raise_trap (Kernel.machine k) 7 0)
  done;
  let expected = Journal.flight_to_text (journal_of older) 16 in
  Alcotest.(check bool) "the two black boxes differ" false
    (String.equal expected (Journal.flight_to_text (journal_of newer) 16));
  let kdom = Kernel.kernel_domain k in
  let target = Kernel.bind k kdom "/stats/kernel" in
  let logged =
    capturing_debug (fun () ->
        match
          Invoke.call_exn (Kernel.ctx k kdom) target ~iface:"no-such" ~meth:"m" []
        with
        | exception Oerror.Error (Oerror.No_such_interface _) -> ()
        | _ -> Alcotest.fail "call_exn must raise")
  in
  match logged with
  | [ msg ] ->
    Alcotest.(check bool) "the dump is the older system's flight tail" true
      (String.ends_with ~suffix:expected msg)
  | l -> Alcotest.failf "expected one debug message, got %d" (List.length l)

(* The observable outputs of a system: its journal export, its
   /stats/kernel text and its lint report, read in that order so the
   later reads do not land in the earlier ones. *)
let outputs sys =
  let k = System.kernel sys in
  let export = Journal.export (journal_of sys) in
  let stats = Stats_svc.snapshot_text (System.stats sys) in
  let lint =
    Lint.run ~machine:(Kernel.machine k) ~directory:(Kernel.directory k)
      ~events:(Kernel.events k) ~journal:(journal_of sys)
      ~domains:(fun () -> Kernel.domains k)
      ()
  in
  (export, stats, Lint.report_to_string lint)

(* System A: one CPU, observability on, an unnamed doorbell channel
   drained by a pop-up. Returns the steps that drive it. *)
let steps_a sys =
  let k = System.kernel sys in
  Obs.enable (Clock.obs (System.clock sys));
  let kdom = Kernel.kernel_domain k in
  let udom = System.new_domain sys "a-consumer" in
  let chan =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~slots:4 ~slot_size:16
      ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  ignore
    (Chan.on_doorbell chan ~events:(Kernel.events k) ~sched:(Kernel.sched k) (fun () ->
         ignore (Chan.recv_batch chan ())));
  List.init 6 (fun i () ->
      ignore (Chan.try_send chan (Bytes.of_string (Printf.sprintf "a%d" i)));
      Kernel.step k ~ticks:2 ())

(* A KV boot serving gets over loopback keeps nothing per op: its live
   heap after 5,000 more gets is what it was after 500. Looped-back
   frames kept as wire traffic would add about 26K words over this
   span. *)
let test_kv_boot_heap_stays_flat () =
  let sys = System.create ~seed:1 ~key_bits:384 () in
  let k = System.kernel sys in
  let _kv, client = System.setup_kv sys ~placement:System.Certified ~cache_capacity:16 in
  let keys = Array.init 12 (Printf.sprintf "k%04d") in
  let request ~op key value =
    ignore (Kv.send client ~op ~key value);
    Kernel.step k ~ticks:2 ();
    match Kv.replies client with
    | [ Ok r ] when r.Storewire.Kvmsg.status = Storewire.Kvmsg.status_ok -> ()
    | _ -> Alcotest.failf "kv op %d on %s failed" op key
  in
  Array.iter (fun key -> request ~op:Storewire.kv_put key "value") keys;
  let gets n =
    for i = 0 to n - 1 do
      request ~op:Storewire.kv_get keys.(i mod Array.length keys) ""
    done
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  gets 500;
  let before = live () in
  gets 5000;
  let after = live () in
  ignore (Sys.opaque_identity (sys, client));
  Alcotest.(check bool)
    (Printf.sprintf "live words %d -> %d" before after)
    true
    (after - before < 1000)

(* System B: two CPUs, the KV path over loopback net and the block-store
   stack, and a doorbell channel whose consumer is pinned to CPU 1. *)
let steps_b sys =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let _kv, client = System.setup_kv sys ~placement:System.Certified ~cache_capacity:8 in
  let far = System.new_domain sys "far" in
  let bell =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~name:"b.bell" ~slots:4 ~slot_size:16
      ~producer:kdom ()
  in
  ignore (Chan.accept bell ~into:far);
  Cpu.pin (System.cpu sys) ~domain:far.Domain.id ~cpu:1;
  ignore
    (Chan.on_doorbell bell ~events:(Kernel.events k) ~sched:(Smp.sched (System.smp sys) 1)
       (fun () -> ignore (Chan.recv_batch bell ())));
  List.init 6 (fun i () ->
      ignore
        (Kv.send client ~op:Storewire.kv_put
           ~key:(Printf.sprintf "key-%d" (i mod 3))
           (Printf.sprintf "val-%d" i));
      ignore (Chan.try_send bell (Bytes.of_string "ping"));
      Kernel.step k ~ticks:4 ())

let boot_a () = System.create ~seed:7 ~key_bits:384 ()
let boot_b () = System.create ~seed:8 ~key_bits:384 ~cpus:2 ()

(* the journal records everything from here on *)
let full sys =
  Journal.set_mode (journal_of sys) Journal.Full;
  sys

let solo boot steps =
  let sys = full (boot ()) in
  List.iter (fun step -> step ()) (steps sys);
  outputs sys

let rec alternate xs ys =
  match (xs, ys) with
  | x :: xs, y :: ys ->
    x ();
    y ();
    alternate xs ys
  | rest, [] | [], rest -> List.iter (fun step -> step ()) rest

let test_interleaved_systems_match_solo () =
  let solo_a = solo boot_a steps_a in
  let solo_b = solo boot_b steps_b in
  let a = full (boot_a ()) in
  let b = full (boot_b ()) in
  alternate (steps_a a) (steps_b b);
  let both_a = outputs a and both_b = outputs b in
  let check name (e1, s1, l1) (e2, s2, l2) =
    Alcotest.(check string) (name ^ " journal export") e1 e2;
    Alcotest.(check string) (name ^ " /stats/kernel") s1 s2;
    Alcotest.(check string) (name ^ " lint report") l1 l2
  in
  check "A" solo_a both_a;
  check "B" solo_b both_b;
  let has needle (export, _, _) =
    List.exists
      (fun line -> String.ends_with ~suffix:needle line)
      (String.split_on_char '\n' export)
  in
  Alcotest.(check bool) "B ran on CPU 1" true (has " cpu=1" both_b);
  Alcotest.(check bool) "A never left CPU 0" false (has " cpu=1" both_a)

let () =
  Alcotest.run "integration"
    [
      ( "placements",
        [
          Alcotest.test_case "packet flow everywhere" `Quick
            test_packet_flow_all_placements;
          Alcotest.test_case "interposed monitor" `Quick
            test_interposed_monitor_sees_everything;
          Alcotest.test_case "override isolates domains" `Quick
            test_namespace_override_isolates_domains;
        ] );
      ( "certification",
        [
          Alcotest.test_case "tampered component barred" `Quick
            test_tampered_component_cannot_enter_kernel;
          Alcotest.test_case "revocation" `Quick test_revoked_delegate_stops_admitting;
          Alcotest.test_case "unknown authority" `Quick test_unknown_authority_rejected;
          Alcotest.test_case "SPIN-as-delegate model" `Quick
            test_spin_model_trusted_compiler;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "rx ring overrun" `Quick
            test_rx_ring_overrun_drops_not_crashes;
          Alcotest.test_case "component crash contained" `Quick
            test_component_crash_contained;
        ] );
      ( "events",
        [
          Alcotest.test_case "blocking popup pipeline" `Quick
            test_interrupt_popup_blocking_pipeline;
          Alcotest.test_case "timer pipeline" `Quick test_timer_driven_preemption_signal;
        ] );
      ( "types",
        [
          Alcotest.test_case "ill-typed calls refused" `Quick
            test_every_method_checks_its_arguments;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "cross-domain tax" `Quick
            test_cross_domain_tax_visible_in_counters;
          Alcotest.test_case "sandbox tax scales" `Quick
            test_sandbox_tax_scales_with_packet_size;
        ] );
      ( "observability",
        [
          Alcotest.test_case "traced workload end to end" `Quick
            test_tracing_whole_workload;
        ] );
      ( "hermetic",
        [
          Alcotest.test_case "a dropped system is freed" `Quick
            test_dropped_system_freed;
          Alcotest.test_case "crash dump reads the failing system" `Quick
            test_crash_dump_reads_failing_system;
          Alcotest.test_case "interleaved systems match their solo runs" `Quick
            test_interleaved_systems_match_solo;
          Alcotest.test_case "a kv boot's heap stays flat" `Quick
            test_kv_boot_heap_stays_flat;
        ] );
    ]

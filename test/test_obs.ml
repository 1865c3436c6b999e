(* Tests for the observability subsystem: spans as journal events, the
   metrics registry, zero-cost-when-disabled instrumentation, the trace
   interposer's transparency, and the /nucleus/trace service. *)

open Paramecium

(* --- spans: one helper, journal events --------------------------------- *)

let traced_clock () =
  let clock = Clock.create () in
  Obs.enable (Clock.obs clock);
  (clock, Obs.journal (Clock.obs clock))

let span clock ~obj f =
  Clock.span clock ~costs:Cost.default ~domain:0 ~layer:"test" ~obj ~iface:"i" ~meth:"m" f

let test_span_nesting_depth () =
  let clock, j = traced_clock () in
  span clock ~obj:"a" (fun () -> span clock ~obj:"b" (fun () -> Clock.advance clock 1));
  match Journal.spans j with
  | [ inner; outer ] ->
    Alcotest.(check int) "inner depth" 1 inner.Journal.depth;
    Alcotest.(check int) "outer depth" 0 outer.Journal.depth;
    Alcotest.(check string) "inner first (completion order)" "test i.m b"
      inner.Journal.enter.Journal.detail;
    Alcotest.(check int) "each span books one store" (1 + (2 * 2))
      (outer.Journal.exit_at - outer.Journal.enter.Journal.at)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* a method that raises (not an [Error] — an OCaml exception) must still
   leave a matched enter/exit, and the next span starts at depth 0 *)
let test_span_closes_on_exception () =
  let clock, j = traced_clock () in
  let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
  let registry = Registry.create () in
  let iface =
    Iface.make ~name:"bomb" [ Iface.meth ~name:"raise" ~args:[] ~ret:Vtype.Tunit (fun _ _ -> failwith "kaboom") ]
  in
  let bomb = Instance.create registry ~class_name:"test.bomb" ~domain:0 [ iface ] in
  (match Invoke.call ctx bomb ~iface:"bomb" ~meth:"raise" [] with
  | exception Failure m -> Alcotest.(check string) "exception propagates" "kaboom" m
  | _ -> Alcotest.fail "the raise must propagate");
  Alcotest.(check int) "one enter" 1 (Journal.count j Journal.Span_enter);
  Alcotest.(check int) "one matching exit" 1 (Journal.count j Journal.Span_exit);
  span clock ~obj:"after" ignore;
  match List.rev (Journal.spans j) with
  | after :: _ -> Alcotest.(check int) "no depth leaked" 0 after.Journal.depth
  | [] -> Alcotest.fail "no spans"

(* a traced wire parse inside the body re-establishes another ambient
   request; the span still exits under the rid it entered with *)
let test_span_exit_keeps_enter_rid () =
  let clock, j = traced_clock () in
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      Trace.set_current 5;
      span clock ~obj:"parse" (fun () -> Trace.set_current 9);
      let rids kind =
        List.filter_map
          (fun e -> if e.Journal.kind = kind then Some e.Journal.rid else None)
          (Journal.tail j)
      in
      Alcotest.(check (list int)) "enter rid" [ 5 ] (rids Journal.Span_enter);
      Alcotest.(check (list int)) "exit rid = enter rid" [ 5 ] (rids Journal.Span_exit))

(* --- metrics ---------------------------------------------------------- *)

let test_histogram_percentiles () =
  let m = Metrics.create () in
  for v = 1 to 100 do
    Metrics.observe m ~domain:0 "lat" v
  done;
  match Metrics.summary m ~domain:0 "lat" with
  | None -> Alcotest.fail "no summary"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Metrics.count;
    Alcotest.(check int) "sum" 5050 s.Metrics.sum;
    Alcotest.(check int) "min" 1 s.Metrics.min;
    Alcotest.(check int) "max" 100 s.Metrics.max;
    (* rank 50 lands in bucket [32,64); rank 90 and 99 in [64,128) *)
    Alcotest.(check int) "p50 bucket floor" 32 s.Metrics.p50;
    Alcotest.(check int) "p90 bucket floor" 64 s.Metrics.p90;
    Alcotest.(check int) "p99 bucket floor" 64 s.Metrics.p99

let test_bucket_scheme () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 0" 0 (Metrics.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 1" 1 (Metrics.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 1" 1 (Metrics.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 2" 2 (Metrics.bucket_of 4);
  Alcotest.(check int) "1024 -> bucket 10" 10 (Metrics.bucket_of 1024);
  Alcotest.(check int) "floor of bucket 0" 0 (Metrics.bucket_floor 0);
  Alcotest.(check int) "floor of bucket 10" 1024 (Metrics.bucket_floor 10)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.incr m ~domain:1 "calls";
  Metrics.add m ~domain:1 "calls" 4;
  Metrics.incr m ~domain:2 "calls";
  Metrics.set_gauge m ~domain:0 "ready" 7;
  Metrics.set_gauge m ~domain:0 "ready" 3;
  Alcotest.(check int) "counter keyed by domain" 5 (Metrics.counter m ~domain:1 "calls");
  Alcotest.(check int) "other domain separate" 1 (Metrics.counter m ~domain:2 "calls");
  Alcotest.(check int) "gauge keeps last value" 3 (Metrics.gauge m ~domain:0 "ready");
  Alcotest.(check int) "absent counter is 0" 0 (Metrics.counter m ~domain:9 "nope")

(* --- zero-cost-when-disabled instrumentation -------------------------- *)

let echo_registry () =
  let registry = Registry.create () in
  let iface =
    Iface.make ~name:"echo"
      [
        Iface.meth ~name:"echo" ~args:[ Vtype.Tany ] ~ret:Vtype.Tany
          (fun _ctx -> function [ v ] -> Ok v | _ -> Error (Oerror.Type_error "echo"));
        Iface.meth ~name:"boom" ~args:[] ~ret:Vtype.Tunit
          (fun _ctx _ -> Error (Oerror.Fault "boom"));
      ]
  in
  (registry, Instance.create registry ~class_name:"test.echo" ~domain:0 [ iface ])

let test_disabled_costs_nothing () =
  let clock = Clock.create () in
  let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
  let _, echo = echo_registry () in
  let cost body =
    let before = Clock.now clock in
    body ();
    Clock.now clock - before
  in
  let obs = Clock.obs clock in
  Alcotest.(check bool) "tracing starts disabled" false (Obs.enabled obs);
  let off =
    cost (fun () ->
        ignore (Invoke.call ctx echo ~iface:"echo" ~meth:"echo" [ Value.Int 1 ]))
  in
  Alcotest.(check int) "disabled call = indirect_call only"
    (Cost.dispatch Cost.default) off;
  Obs.enable obs;
  let on =
    cost (fun () ->
        ignore (Invoke.call ctx echo ~iface:"echo" ~meth:"echo" [ Value.Int 1 ]))
  in
  Alcotest.(check int) "enabled call adds exactly one mem_write"
    (Cost.traced_dispatch Cost.default)
    on;
  Alcotest.(check int) "the span is in the journal" 1
    (Journal.count (Obs.journal obs) Journal.Span_exit);
  Obs.disable obs;
  let off2 =
    cost (fun () ->
        ignore (Invoke.call ctx echo ~iface:"echo" ~meth:"echo" [ Value.Int 1 ]))
  in
  Alcotest.(check int) "disabling restores the exact cost"
    (Cost.dispatch Cost.default) off2

(* --- trace interposer transparency ------------------------------------ *)

let sys_fixture () = System.create ~seed:0xBEEF ()

let test_interposer_transparent () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let registry = api.Api.registry in
  let iface =
    Iface.make ~name:"echo"
      [
        Iface.meth ~name:"echo" ~args:[ Vtype.Tany ] ~ret:Vtype.Tany
          (fun _ctx -> function [ v ] -> Ok v | _ -> Error (Oerror.Type_error "echo"));
        Iface.meth ~name:"boom" ~args:[] ~ret:Vtype.Tunit
          (fun _ctx _ -> Error (Oerror.Fault "boom"));
      ]
  in
  let target =
    Instance.create registry ~class_name:"test.echo" ~domain:kdom.Domain.id [ iface ]
  in
  Kernel.register_at k "/svc/echo" target;
  let ctx = Kernel.ctx k kdom in
  let blob = Value.Blob (Bytes.init 64 (fun b -> Char.chr (b * 3 mod 256))) in
  let direct = Invoke.call ctx target ~iface:"echo" ~meth:"echo" [ blob ] in
  let direct_err = Invoke.call ctx target ~iface:"echo" ~meth:"boom" [] in
  (* tracing on, so the agent actually records while we compare results *)
  Obs.enable (Clock.obs (Kernel.clock k));
  match Obs_agent.interpose api ~path:"/svc/echo" with
  | Error e -> Alcotest.fail e
  | Ok (agent, original) ->
    Alcotest.(check bool) "original is the target" true (original == target);
    let via_agent = Kernel.bind k kdom "/svc/echo" in
    Alcotest.(check bool) "rebinding resolves to the agent" true (via_agent == agent);
    let traced = Invoke.call ctx agent ~iface:"echo" ~meth:"echo" [ blob ] in
    (match (direct, traced) with
    | Ok a, Ok b ->
      Alcotest.(check bool) "byte-identical result through the agent" true
        (Value.equal a b)
    | _ -> Alcotest.fail "echo failed");
    let traced_err = Invoke.call ctx agent ~iface:"echo" ~meth:"boom" [] in
    (match (direct_err, traced_err) with
    | Error a, Error b ->
      Alcotest.(check string) "identical error through the agent"
        (Oerror.to_string a) (Oerror.to_string b)
    | _ -> Alcotest.fail "boom must fail identically");
    Alcotest.(check bool) "agent errors are counted" true
      (Metrics.counter (Obs.metrics (Clock.obs (Kernel.clock k)))
         ~domain:kdom.Domain.id "trace.errors"
      >= 1);
    (match Obs_agent.remove api ~path:"/svc/echo" ~agent ~original with
    | Error e -> Alcotest.fail e
    | Ok () ->
      let restored = Kernel.bind k kdom "/svc/echo" in
      Alcotest.(check bool) "original binding restored" true (restored == target));
    Obs.disable (Clock.obs (Kernel.clock k))

let test_remove_refuses_foreign_entry () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let _, target = echo_registry () in
  let target =
    (* re-home the instance into the system registry *)
    ignore target;
    let iface =
      Iface.make ~name:"echo"
        [
          Iface.meth ~name:"echo" ~args:[ Vtype.Tany ] ~ret:Vtype.Tany
            (fun _ctx -> function [ v ] -> Ok v | _ -> Error (Oerror.Type_error "e"));
        ]
    in
    Instance.create api.Api.registry ~class_name:"test.echo" ~domain:kdom.Domain.id
      [ iface ]
  in
  Kernel.register_at k "/svc/echo2" target;
  match Obs_agent.interpose api ~path:"/svc/echo2" with
  | Error e -> Alcotest.fail e
  | Ok (agent, original) ->
    (* someone else interposes over the trace agent *)
    let usurper = Interpose.packet_monitor api kdom ~target:agent in
    (match Interpose.attach api ~path:"/svc/echo2" ~agent:usurper with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    (match Obs_agent.remove api ~path:"/svc/echo2" ~agent ~original with
    | Ok () -> Alcotest.fail "remove must refuse when not on top"
    | Error _ ->
      (* the usurper's binding is untouched *)
      let bound = Kernel.bind k kdom "/svc/echo2" in
      Alcotest.(check bool) "foreign entry left in place" true (bound == usurper))

(* --- the /nucleus/trace service ---------------------------------------- *)

let test_trace_service_cross_domain () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let udom = System.new_domain sys "observer" in
  let trace = Kernel.bind k udom "/nucleus/trace" in
  Alcotest.(check bool) "user domain reaches the service via proxy" true
    (Proxy.is_proxy trace);
  let uctx = Kernel.ctx k udom in
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  let call m args = Invoke.call uctx trace ~iface:"trace" ~meth:m args in
  (match call "enabled" [] with
  | Ok (Value.Bool false) -> ()
  | _ -> Alcotest.fail "tracing must start disabled");
  (match call "start" [] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "start");
  Alcotest.(check bool) "start flips the clock's sink" true
    (Obs.enabled (Clock.obs (Kernel.clock k)));
  (* install an agent over the shared network driver, by name *)
  (match call "interpose" [ Value.Str "/shared/network" ] with
  | Ok (Value.Int h) -> Alcotest.(check bool) "agent handle" true (h > 0)
  | _ -> Alcotest.fail "interpose");
  (* duplicate interpose refused *)
  (match call "interpose" [ Value.Str "/shared/network" ] with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "double interpose must fail");
  (* drive traffic through the agent from the kernel side *)
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
  let kctx = Kernel.ctx k kdom in
  let agent = Kernel.bind k kdom "/shared/network" in
  for _ = 1 to 4 do
    ignore
      (Invoke.call_exn kctx agent ~iface:"netdev" ~meth:"send"
         [ Value.Blob (Bytes.create 32) ])
  done;
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  (match call "snapshot" [] with
  | Ok (Value.Str text) ->
    Alcotest.(check bool) "snapshot mentions the agent" true
      (let sub = "trace:toolbox.netdrv" in
       let rec find i =
         i + String.length sub <= String.length text
         && (String.sub text i (String.length sub) = sub || find (i + 1))
       in
       find 0)
  | _ -> Alcotest.fail "snapshot");
  (match call "histogram" [ Value.Int kdom.Domain.id; Value.Str "invoke.dispatch" ] with
  | Ok (Value.Str text) ->
    Alcotest.(check bool) "histogram has samples" true
      (String.length text > 0 && String.sub text 0 6 = "count=")
  | _ -> Alcotest.fail "histogram");
  (match call "uninterpose" [ Value.Str "/shared/network" ] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "uninterpose");
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
  let restored = Kernel.bind k kdom "/shared/network" in
  Alcotest.(check bool) "uninterpose restores the driver" true
    (restored == net.System.driver);
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  (match call "stop" [] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "stop");
  Alcotest.(check bool) "stop disables" false (Obs.enabled (Clock.obs (Kernel.clock k)))

(* --- histogram edge cases ---------------------------------------------- *)

let test_histogram_empty () =
  let m = Metrics.create () in
  Alcotest.(check bool) "no samples -> no summary" true
    (Metrics.summary m ~domain:0 "lat" = None);
  Metrics.observe m ~domain:0 "lat" 7;
  Alcotest.(check bool) "one sample -> summary" true
    (Metrics.summary m ~domain:0 "lat" <> None);
  Metrics.reset m;
  Alcotest.(check bool) "reset empties the histogram" true
    (Metrics.summary m ~domain:0 "lat" = None)

let test_histogram_single_sample () =
  let m = Metrics.create () in
  Metrics.observe m ~domain:0 "lat" 100;
  match Metrics.summary m ~domain:0 "lat" with
  | None -> Alcotest.fail "no summary"
  | Some s ->
    Alcotest.(check int) "count" 1 s.Metrics.count;
    Alcotest.(check int) "exact min" 100 s.Metrics.min;
    Alcotest.(check int) "exact max" 100 s.Metrics.max;
    (* every percentile is the lone sample's bucket floor: 100 lives in
       [64,128) *)
    let floor = Metrics.bucket_floor (Metrics.bucket_of 100) in
    Alcotest.(check int) "expected floor" 64 floor;
    Alcotest.(check int) "p50" floor s.Metrics.p50;
    Alcotest.(check int) "p90" floor s.Metrics.p90;
    Alcotest.(check int) "p99" floor s.Metrics.p99

let test_bucket_power_boundaries () =
  (* bucket b >= 1 holds [2^b, 2^(b+1)): the boundary value opens the next
     bucket, one below stays *)
  Alcotest.(check int) "1023 stays in bucket 9" 9 (Metrics.bucket_of 1023);
  Alcotest.(check int) "1024 opens bucket 10" 10 (Metrics.bucket_of 1024);
  Alcotest.(check int) "1025 stays in bucket 10" 10 (Metrics.bucket_of 1025);
  Alcotest.(check int) "2047 tops bucket 10" 10 (Metrics.bucket_of 2047);
  Alcotest.(check int) "2048 opens bucket 11" 11 (Metrics.bucket_of 2048);
  (* floor(bucket_of v) <= v for all positive v *)
  List.iter
    (fun v ->
      let f = Metrics.bucket_floor (Metrics.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "floor %d <= %d" f v)
        true (f <= v))
    [ 1; 2; 3; 4; 5; 1023; 1024; 1025; 123_456 ]

(* --- per-domain accounting and its zero-cost-when-off contract -------- *)

(* S6: the E1/E3/E4-shaped workloads must cost exactly the same cycles
   with accounting compiled in but disabled — before AND after an enabled
   interval, so the instrumentation leaves no residue. *)

let cycles_of clock body =
  let before = Clock.now clock in
  body ();
  Clock.now clock - before

let test_accounting_zero_cost_invoke () =
  (* E1 shape: repeated same-domain dispatch *)
  let clock = Clock.create () in
  let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
  let _, echo = echo_registry () in
  let call () =
    ignore (Invoke.call ctx echo ~iface:"echo" ~meth:"echo" [ Value.Int 1 ])
  in
  let obs = Clock.obs clock in
  let off_before = cycles_of clock (fun () -> for _ = 1 to 50 do call () done) in
  Alcotest.(check int) "disabled = 50 bare dispatches"
    (50 * Cost.dispatch Cost.default) off_before;
  Obs.enable obs;
  ignore (cycles_of clock (fun () -> for _ = 1 to 50 do call () done));
  Alcotest.(check int) "enabled interval filled the accounting" 50
    (Obs.account obs ~domain:0).Obs.dispatches;
  Obs.disable obs;
  let off_after = cycles_of clock (fun () -> for _ = 1 to 50 do call () done) in
  Alcotest.(check int) "cost identical after the enabled interval" off_before
    off_after;
  Alcotest.(check int) "disabled interval charged nothing" 50
    (Obs.account obs ~domain:0).Obs.dispatches

let test_accounting_zero_cost_cross_domain () =
  (* E3/E4 shape: user-placed stack, kernel-side packet injection crossing
     the proxy, driven twice disabled around an enabled interval *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "netuser" in
  let net = System.setup_networking sys ~placement:(System.User udom) ~addr:42 () in
  ignore
    (Invoke.call_exn (Kernel.ctx k udom) net.System.stack ~iface:"stack"
       ~meth:"bind_port" [ Value.Int 7 ]);
  let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
  let payload = String.make 64 'p' in
  let packet =
    Bytes.to_string
      (Wire.frame ctx ~src:13 ~dst:42 ~ttl:8 ~proto:Stack.proto_transport ~sport:9 ~dport:7
         (Bytes.of_string payload))
  in
  let clock = Kernel.clock k in
  let round () =
    Nic.inject (Kernel.nic k) packet;
    Kernel.step k ~ticks:1 ()
  in
  (* warm up lazy binds *)
  round ();
  Kernel.step k ~ticks:2 ();
  let burst () = cycles_of clock (fun () -> for _ = 1 to 5 do round () done) in
  let off_before = burst () in
  let obs = Clock.obs clock in
  Obs.enable obs;
  ignore (burst ());
  let kacct = Obs.account obs ~domain:0 in
  Alcotest.(check bool) "enabled interval charged crossings" true
    (kacct.Obs.crossings >= 5);
  Alcotest.(check bool) "crossing cycles accumulate" true
    (kacct.Obs.crossing_cycles > 0);
  Alcotest.(check bool) "irqs charged to the kernel domain" true
    (kacct.Obs.irqs >= 5);
  Obs.disable obs;
  let off_after = burst () in
  Alcotest.(check int) "packet cost identical after the enabled interval"
    off_before off_after

(* /nucleus/trace reset, called from a user domain, clears the metrics
   and so the accounting view over them: the journal's history (boot
   binds, page shares, transaction ids) survives *)
let test_reset_keeps_history () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "tenant" in
  let obs = Clock.obs (Kernel.clock k) in
  let j = Obs.journal obs in
  Obs.observe obs ~domain:udom.Domain.id "invoke.dispatch" 10;
  Obs.observe obs ~domain:udom.Domain.id "lat" 10;
  let trace = Kernel.bind k udom "/nucleus/trace" in
  let structural = List.length (Journal.structural j) in
  let written = Journal.written j in
  Alcotest.(check bool) "boot left a structural archive" true (structural > 0);
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  (match Invoke.call (Kernel.ctx k udom) trace ~iface:"trace" ~meth:"reset" [] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "reset");
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) 0;
  Alcotest.(check int) "structural archive intact" structural
    (List.length (Journal.structural j));
  Alcotest.(check bool) "journal not rewound" true (Journal.written j >= written);
  Alcotest.(check int) "reset counted" 1 (Obs.resets obs);
  Alcotest.(check int) "accounting view zeroed" 0
    (Obs.account obs ~domain:udom.Domain.id).Obs.dispatches;
  Alcotest.(check bool) "metrics cleared" true
    (Metrics.summary (Obs.metrics obs) ~domain:udom.Domain.id "lat" = None)

(* the [k=v] fields of one /stats row line *)
let row_fields line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        Some (String.sub tok 0 i, int_of_string (String.sub tok (i + 1) (String.length tok - i - 1)))
      | None -> None)
    (String.split_on_char ' ' line)

(* the fields of domain [id]'s line in a /stats snapshot *)
let dom_row text id =
  let prefix = Printf.sprintf "dom %-2d " id in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text) with
  | Some line -> row_fields line
  | None -> Alcotest.failf "no row for domain %d in:\n%s" id text

(* a span's histogram sample is its journalled duration: in a Full-mode
   journal each domain's invoke.dispatch sum is the sum of exit - enter
   over that domain's invoke spans *)
let test_span_sample_agree () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let udom = System.new_domain sys "tenant" in
  let obs = Clock.obs (Kernel.clock k) in
  let j = Obs.journal obs in
  Journal.set_mode j Journal.Full;
  Obs.enable obs;
  let as_domain (d : Domain.t) path meth args =
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) d.Domain.id;
    let obj = Kernel.bind k d path in
    for _ = 1 to 4 do
      ignore (Invoke.call_exn (Kernel.ctx k d) obj ~iface:"trace" ~meth args)
    done
  in
  as_domain kdom "/nucleus/trace" "snapshot" [];
  (* through the proxy: invoke spans in the user domain and the kernel *)
  as_domain udom "/nucleus/trace" "enabled" [];
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
  Obs.disable obs;
  List.iter
    (fun (d : Domain.t) ->
      let spanned =
        List.fold_left
          (fun acc e ->
            if e.Journal.domain <> d.Domain.id
               || not (String.starts_with ~prefix:"invoke " e.Journal.detail)
            then acc
            else
              match e.Journal.kind with
              | Journal.Span_enter -> acc - e.Journal.at
              | Journal.Span_exit -> acc + e.Journal.at
              | _ -> acc)
          0 (Journal.history j)
      in
      match Metrics.summary (Obs.metrics obs) ~domain:d.Domain.id "invoke.dispatch" with
      | Some s ->
        Alcotest.(check int) (d.Domain.name ^ ": sample sum = span durations") spanned
          s.Metrics.sum
      | None -> Alcotest.failf "%s: no invoke.dispatch samples" d.Domain.name)
    [ kdom; udom ]

(* sched.switches is billed to the dispatched thread's domain: over an
   Obs-on interval the per-domain values add up to the dispatch count *)
let test_sched_switches_per_domain () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let a = System.new_domain sys "a" and b = System.new_domain sys "b" in
  let sched = Kernel.sched k in
  let obs = Clock.obs (Kernel.clock k) in
  let before = Scheduler.stats sched `Switches in
  Obs.enable obs;
  List.iter
    (fun ((d : Domain.t), yields) ->
      ignore
        (Scheduler.spawn sched ~domain:d.Domain.id (fun () ->
             for _ = 1 to yields do
               Scheduler.yield ()
             done)))
    [ (a, 2); (b, 3); (a, 1) ];
  ignore (Scheduler.run sched ());
  Obs.disable obs;
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) 0;
  let switches (d : Domain.t) =
    Metrics.counter (Obs.metrics obs) ~domain:d.Domain.id "sched.switches"
  in
  Alcotest.(check int) "a's threads ran 2 + 1 + 2 times" 5 (switches a);
  Alcotest.(check int) "b's thread ran 4 times" 4 (switches b);
  Alcotest.(check int) "per-domain values add up to the dispatch count"
    (Scheduler.stats sched `Switches - before)
    (switches a + switches b);
  Alcotest.(check int) "none billed to the kernel domain" 0
    (switches (Kernel.kernel_domain k))

(* --- the accounting view against a plain per-domain model -------------- *)

(* the five span kinds: layer and metric *)
let span_kinds =
  [| ("invoke", "invoke.dispatch"); ("events", "events.trap"); ("events", "events.irq");
     ("vmem", "vmem.fault"); ("proxy", "proxy.call") |]

type op =
  | Span of int * int * int  (** domain index, span kind, body cycles *)
  | Switch of int  (** one scheduler dispatch of a thread in the domain *)
  | Reset

let op_to_string = function
  | Span (d, kind, n) -> Printf.sprintf "span(%d,%s,%d)" d (snd span_kinds.(kind)) n
  | Switch d -> Printf.sprintf "switch(%d)" d
  | Reset -> "reset"

let gen_ops =
  QCheck2.Gen.(
    list_size (int_bound 24)
      (frequency
         [
           (6, map3 (fun d kind n -> Span (d, kind, n)) (int_bound 2) (int_bound 4) (int_bound 400));
           (2, map (fun d -> Switch d) (int_bound 2));
           (1, return Reset);
         ]))

(* the model's counter fields, in /stats row order (pages aside) *)
let counter_fields =
  [ "cycles"; "dispatches"; "traps"; "irqs"; "faults"; "crossings"; "crossing_cycles";
    "sched_runs" ]

(* One booted system serves every case: each starts from a reset. The
   /stats and /nucleus/trace calls run with Obs off, so only the ops
   themselves are accounted. *)
let model_fixture =
  lazy
    (let sys = sys_fixture () in
     let k = System.kernel sys in
     let kdom = Kernel.kernel_domain k in
     let doms = [| kdom; System.new_domain sys "left"; System.new_domain sys "right" |] in
     let bind path = Kernel.bind k kdom path in
     (* /stats/kernel doubles as the kernel domain's stats.domain object *)
     let readers = Array.map (fun (d : Domain.t) -> bind ("/stats/" ^ d.Domain.name)) doms in
     (sys, doms, readers, bind "/nucleus/trace"))

let prop_view_matches_model ops =
  let sys, doms, readers, trace = Lazy.force model_fixture in
  let stats = readers.(0) in
  let k = System.kernel sys in
  let kdom = doms.(0) in
  let ctx = Kernel.ctx k kdom in
  let clock = Kernel.clock k and costs = Machine.costs (Kernel.machine k) in
  let obs = Clock.obs clock in
  let quiet f =
    Obs.disable obs;
    Fun.protect ~finally:(fun () -> Obs.enable obs) f
  in
  let call obj iface meth args = quiet (fun () -> Invoke.call_exn ctx obj ~iface ~meth args) in
  let nf = List.length counter_fields in
  (* per domain: counts since the last reset *)
  let cur = Array.init 3 (fun _ -> Array.make nf 0) in
  let bump d i n = cur.(d).(i) <- cur.(d).(i) + n in
  ignore (call trace "trace" "reset" []);
  Obs.enable obs;
  let apply = function
    | Span (d, kind, n) ->
      let layer, metric = span_kinds.(kind) in
      Clock.span clock ~costs ~domain:doms.(d).Domain.id ~layer ~obj:"model" ~iface:"i"
        ~meth:"m" ~metric (fun () -> Clock.advance clock n);
      let sample = n + Cost.span_store costs in
      bump d 0 sample;
      bump d (1 + kind) 1;
      if kind = 4 then bump d 6 sample
    | Switch d ->
      let sched = Kernel.sched k in
      ignore (Scheduler.spawn sched ~domain:doms.(d).Domain.id ignore);
      ignore (Scheduler.run sched ());
      Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
      bump d 7 1
    | Reset ->
      ignore (call trace "trace" "reset" []);
      Array.iter (fun r -> Array.fill r 0 nf 0) cur
  in
  (* the live view of one domain against the model: value(field) and the
     snapshot row are the count since the reset, and cycles the total of
     the five span sums *)
  let domain_ok snapshot d (dom : Domain.t) =
    let value field =
      match call readers.(d) "stats.domain" "value" [ Value.Str field ] with
      | Value.Int v -> v
      | _ -> failwith "value"
    in
    let sum metric =
      match Metrics.summary (Obs.metrics obs) ~domain:dom.Domain.id metric with
      | Some s -> s.Metrics.sum
      | None -> 0
    in
    let pages = Vmem.pages_of (Kernel.vmem k) dom
    and srow = dom_row snapshot dom.Domain.id in
    (Obs.account obs ~domain:dom.Domain.id).Obs.cycles
    = Array.fold_left (fun acc (_, metric) -> acc + sum metric) 0 span_kinds
    && value "pages" = pages
    && List.assoc "pages" srow = pages
    && List.for_all2
         (fun i field -> value field = cur.(d).(i) && List.assoc field srow = cur.(d).(i))
         (List.init nf Fun.id) counter_fields
  in
  let state_ok () =
    match call stats "stats" "snapshot" [] with
    | Value.Str snapshot -> Array.for_all Fun.id (Array.mapi (domain_ok snapshot) doms)
    | _ -> false
  in
  Fun.protect
    ~finally:(fun () -> Obs.disable obs)
    (fun () ->
      state_ok ()
      && List.for_all
           (fun op ->
             apply op;
             state_ok ())
           ops)

(* --- flight recorder ---------------------------------------------------- *)

(* the flight view is the journal's bounded tail filtered to the black-box
   kinds: other events share the ring but are not shown *)
let test_flightrec_ring () =
  let j = Journal.create ~tail_capacity:4 () in
  for n = 1 to 10 do
    Journal.record j ~kind:Journal.Trap ~domain:0 ~at:(n * 10) ~info:n ~detail:""
  done;
  Alcotest.(check int) "recorded counts everything" 10 (Journal.count j Journal.Trap);
  let evs = Journal.flight j in
  Alcotest.(check int) "only capacity survive" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest-first survivors" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Journal.info) evs);
  Journal.record j ~kind:Journal.Span_enter ~domain:0 ~at:200 ~info:0 ~detail:"x";
  Alcotest.(check (list int)) "spans are not flight records" [ 8; 9; 10 ]
    (List.map (fun e -> e.Journal.info) (Journal.flight j));
  Journal.reset j;
  Alcotest.(check int) "reset empties" 0 (List.length (Journal.flight j))

let test_flightrec_always_on () =
  (* the black box records with tracing OFF — that is its whole point *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  ignore (System.setup_networking sys ~placement:System.Certified ~addr:42 ());
  let obs = Clock.obs (Kernel.clock k) in
  Alcotest.(check bool) "tracing disabled" false (Obs.enabled obs);
  let j = Obs.journal obs in
  let before = Journal.count j Journal.Irq in
  let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
  let payload = Bytes.of_string (String.make 32 'x') in
  let packet =
    Bytes.to_string
      (Wire.frame ctx ~src:13 ~dst:42 ~ttl:8 ~proto:Stack.proto_transport ~sport:9 ~dport:7
         payload)
  in
  Nic.inject (Kernel.nic k) packet;
  Kernel.step k ~ticks:2 ();
  Alcotest.(check bool) "events recorded while disabled" true
    (Journal.count j Journal.Irq > before);
  Alcotest.(check bool) "an interrupt is in the flight view" true
    (List.exists (fun e -> e.Journal.kind = Journal.Irq) (Journal.flight j));
  Alcotest.(check int) "no spans while disabled" 0 (Journal.count j Journal.Span_enter)

(* --- the /stats namespace ----------------------------------------------- *)

let test_stats_namespace () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "muncher" in
  Alcotest.(check bool) "new_domain published /stats/<name>" true
    (List.mem "/stats/muncher" (Stats_svc.published (System.stats sys)));
  Obs.enable (Clock.obs (Kernel.clock k));
  (* the user domain reads its own accounting through the proxy path *)
  let mine = Kernel.bind k udom "/stats/muncher" in
  Alcotest.(check bool) "cross-domain binding is a proxy" true (Proxy.is_proxy mine);
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  let uctx = Kernel.ctx k udom in
  (match
     Invoke.call uctx mine ~iface:"stats.domain" ~meth:"read" []
   with
  | Ok (Value.Str s) ->
    Alcotest.(check bool) "readout names the domain" true
      (String.length s > 0
      && (let sub = "muncher" in
          let rec find i =
            i + String.length sub <= String.length s
            && (String.sub s i (String.length sub) = sub || find (i + 1))
          in
          find 0))
  | _ -> Alcotest.fail "read text");
  (match
     Invoke.call uctx mine ~iface:"stats.domain" ~meth:"value"
       [ Value.Str "dispatches" ]
   with
  | Ok (Value.Int n) -> Alcotest.(check bool) "dispatches counted" true (n >= 1)
  | _ -> Alcotest.fail "value dispatches");
  (match
     Invoke.call uctx mine ~iface:"stats.domain" ~meth:"value" [ Value.Str "nope" ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown field must fail");
  (* kernel-wide service: snapshot and flight *)
  let ksvc = Kernel.bind k udom "/stats/kernel" in
  let call meth args = Invoke.call uctx ksvc ~iface:"stats" ~meth args in
  (match call "snapshot" [] with
  | Ok (Value.Str s) ->
    Alcotest.(check bool) "snapshot header" true
      (String.starts_with ~prefix:"/stats snapshot @ " s)
  | _ -> Alcotest.fail "snapshot");
  (match call "flight" [ Value.Int 0 ] with
  | Ok (Value.Str s) ->
    Alcotest.(check bool) "flight dump" true
      (String.length s >= 7 && String.sub s 0 7 = "flight:")
  | _ -> Alcotest.fail "flight");
  (* a positive argument trims the dump to the last n events *)
  (match call "flight" [ Value.Int 3 ] with
  | Ok (Value.Str s) ->
    Alcotest.(check bool) "flight tail header" true
      (String.length s >= 7 && String.sub s 0 7 = "flight:");
    let lines = String.split_on_char '\n' s in
    Alcotest.(check bool) "flight tail trimmed" true (List.length lines <= 5)
  | _ -> Alcotest.fail "flight tail");
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) 0;
  Obs.disable (Clock.obs (Kernel.clock k))

let test_stats_interposable () =
  (* /stats objects are ordinary instances: a monitor agent interposes on
     /stats/kernel like on anything else *)
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  Obs.enable (Clock.obs (Kernel.clock k));
  match Obs_agent.interpose api ~path:"/stats/kernel" with
  | Error e -> Alcotest.fail e
  | Ok (agent, original) ->
    let bound = Kernel.bind k kdom "/stats/kernel" in
    Alcotest.(check bool) "binding resolves to the agent" true (bound == agent);
    let ctx = Kernel.ctx k kdom in
    (match
       Invoke.call ctx agent ~iface:"stats" ~meth:"snapshot" []
     with
    | Ok (Value.Str s) ->
      Alcotest.(check bool) "snapshot flows through the agent" true
        (String.length s > 0)
    | _ -> Alcotest.fail "snapshot via agent");
    Alcotest.(check bool) "the monitored call left an agent span" true
      (List.exists
         (fun s -> String.starts_with ~prefix:"agent " s.Journal.enter.Journal.detail)
         (Journal.spans (Obs.journal (Clock.obs (Kernel.clock k)))));
    (match Obs_agent.remove api ~path:"/stats/kernel" ~agent ~original with
    | Error e -> Alcotest.fail e
    | Ok () ->
      let restored = Kernel.bind k kdom "/stats/kernel" in
      Alcotest.(check bool) "original restored" true (restored == original));
    Obs.disable (Clock.obs (Kernel.clock k))

(* a domain whose name another domain holds gets one object, at
   /stats/<name>.<id>; one whose qualified path is taken too gets
   none, and leaves none behind *)
let test_stats_name_collision () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let stats = System.stats sys in
  let registry = (Kernel.api k).Api.registry in
  ignore (System.new_domain sys "client");
  let twin = Kernel.create_domain k ~name:"client" () in
  let before = Registry.size registry in
  Alcotest.(check int) "the twin is published" 1 (Stats_svc.publish stats);
  Alcotest.(check int) "one object built" (before + 1) (Registry.size registry);
  let alt = Printf.sprintf "/stats/client.%d" twin.Domain.id in
  Alcotest.(check bool) "under the qualified path" true
    (List.mem alt (Stats_svc.published stats));
  (match
     Invoke.call (Kernel.ctx k kdom) (Kernel.bind k kdom alt) ~iface:"stats.domain"
       ~meth:"read" []
   with
  | Ok (Value.Str s) ->
    Alcotest.(check bool) "it reads the twin" true
      (String.starts_with ~prefix:(Printf.sprintf "dom %-2d client" twin.Domain.id) s)
  | _ -> Alcotest.fail "read");
  let third = Kernel.create_domain k ~name:"client" () in
  (match
     Directory.register (Kernel.directory k)
       (Path.of_string (Printf.sprintf "/stats/client.%d" third.Domain.id))
       (Stats_svc.kernel_object stats)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "squat the qualified path");
  let before = Registry.size registry in
  Alcotest.(check int) "no free path, nothing published" 0 (Stats_svc.publish stats);
  Alcotest.(check int) "no object left behind" before (Registry.size registry)

(* a torn-down domain's object leaves with it: the next publish takes
   back its path and its registry slot, so each round's "worker" gets
   the plain name and up/down rounds leave the registry as boot left it *)
let test_stats_teardown_frees_name () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let stats = System.stats sys in
  let registry = (Kernel.api k).Api.registry in
  let boot = Registry.size registry in
  for round = 1 to 6 do
    let dom = System.new_domain sys "worker" in
    let says = Printf.sprintf "round %d: %s" round in
    Alcotest.(check int) (says "one object") (boot + 1) (Registry.size registry);
    Alcotest.(check (list string)) (says "the plain name") [ "/stats/worker" ]
      (Stats_svc.published stats);
    (match
       Invoke.call (Kernel.ctx k kdom) (Kernel.bind k kdom "/stats/worker")
         ~iface:"stats.domain" ~meth:"read" []
     with
    | Ok (Value.Str s) ->
      Alcotest.(check bool) (says "it reads the live domain") true
        (String.starts_with ~prefix:(Printf.sprintf "dom %-2d worker" dom.Domain.id) s)
    | _ -> Alcotest.fail (says "read"));
    Kernel.destroy_domain k dom
  done;
  Alcotest.(check int) "the last teardown publishes nothing new" 0 (Stats_svc.publish stats);
  Alcotest.(check int) "the registry is back at its boot size" boot (Registry.size registry);
  Alcotest.(check (list string)) "nothing published" [] (Stats_svc.published stats)

(* --- the placement agent's hysteresis ----------------------------------- *)

(* the placer reads the accounting view: feed it the samples the proxy
   and vmem spans record *)
let crossing obs ~domain cyc = if cyc > 0 then Obs.observe obs ~domain "proxy.call" cyc

let fault_burst obs ~domain n =
  for _ = 1 to n do
    Obs.observe obs ~domain "vmem.fault" 0
  done

let test_placer_hysteresis () =
  let clock = Clock.create () in
  let obs = Clock.obs clock in
  let placer = Placer.create ~clock () in
  let migrated = ref [] in
  Placer.manage placer ~watch:[ 1; 2 ] ~placement:Placer.User
    ~migrate:(fun p ->
      migrated := p :: !migrated;
      (* what the move itself costs: certification, reloading *)
      Clock.advance clock (match p with Placer.Certified -> 10_000 | Placer.User -> 2_000);
      true)
    ();
  let epoch_with ~cross ~faults =
    Clock.advance clock 1_000;
    crossing obs ~domain:1 cross;
    fault_burst obs ~domain:1 faults;
    Placer.epoch placer
  in
  (* share 0.5 >= 0.2: first epoch only starts the streak *)
  Alcotest.(check bool) "first hot epoch holds" true
    (epoch_with ~cross:500 ~faults:0 = [ Placer.Hold ]);
  Alcotest.(check bool) "no move yet" true (!migrated = []);
  (* second consecutive hot epoch confirms and migrates *)
  (match epoch_with ~cross:500 ~faults:0 with
  | [ Placer.Migrated Placer.Certified ] -> ()
  | _ -> Alcotest.fail "expected migration to certified");
  Alcotest.(check bool) "migrate closure ran" true
    (!migrated = [ Placer.Certified ]);
  Alcotest.(check int) "one move" 1 (Placer.moves placer);
  (* cooldown epoch: even a hot epoch decides nothing *)
  Alcotest.(check bool) "cooldown holds" true
    (epoch_with ~cross:900 ~faults:0 = [ Placer.Hold ]);
  (* a cold epoch resets the streak; a single hot one does not move *)
  ignore (epoch_with ~cross:0 ~faults:0);
  ignore (epoch_with ~cross:500 ~faults:0);
  Alcotest.(check int) "still one move (hysteresis)" 1 (Placer.moves placer);
  (* fault bursts demote certified back to user after confirm epochs *)
  ignore (epoch_with ~cross:0 ~faults:5);
  (match epoch_with ~cross:0 ~faults:5 with
  | [ Placer.Migrated Placer.User ] -> ()
  | _ -> Alcotest.fail "expected demotion to user");
  Alcotest.(check bool) "demotion ran the closure" true
    (List.hd !migrated = Placer.User);
  (* every move lands in the journal once: its target, the cycles the
     closure charged, the first watched domain *)
  let migrates =
    List.filter
      (fun e -> e.Journal.kind = Journal.Migrate)
      (Journal.structural (Obs.journal obs))
  in
  Alcotest.(check (list string)) "journalled with the target"
    [ "certified"; "user" ]
    (List.map (fun e -> e.Journal.detail) migrates);
  Alcotest.(check (list int)) "with the cycles the move took" [ 10_000; 2_000 ]
    (List.map (fun e -> e.Journal.info) migrates);
  Alcotest.(check (list int)) "charged to the first watched domain" [ 1; 1 ]
    (List.map (fun e -> e.Journal.domain) migrates)

(* an Obs reset between two epochs: the baseline's counts are gone, so
   the second epoch measures its own crossings and confirms the move *)
let test_placer_after_reset () =
  let clock = Clock.create () in
  let obs = Clock.obs clock in
  let placer = Placer.create ~clock () in
  Placer.manage placer ~watch:[ 1 ] ~placement:Placer.User ~migrate:(fun _ -> true) ();
  let epoch_with cross =
    Clock.advance clock 1_000;
    crossing obs ~domain:1 cross;
    Placer.epoch placer
  in
  Alcotest.(check bool) "first hot epoch holds" true (epoch_with 900 = [ Placer.Hold ]);
  Obs.reset obs;
  (match epoch_with 500 with
  | [ Placer.Migrated Placer.Certified ] -> ()
  | _ -> Alcotest.failf "expected migration, share %.2f" (Placer.crossing_share placer));
  Alcotest.(check (float 1e-9)) "share counts from the reset" 0.5
    (Placer.crossing_share placer)

(* The bell share prices each ring as it was paid: a ring from the
   kernel's protection domain calls into the nucleus, one from a user
   domain traps. Either way each epoch's share is its crossings' cycles
   over the epoch's, at most 1, and a channel that rings on every
   message flips to polling once two epochs in a row have asked. *)
let test_placer_bell_share () =
  let run ~kernel_rung =
    let sys = sys_fixture () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k and udom = System.new_domain sys "bell-user" in
    let producer, consumer = if kernel_rung then (kdom, udom) else (udom, kdom) in
    let chan =
      Chan.create (Kernel.machine k) (Kernel.vmem k) ~slots:8 ~slot_size:16 ~producer ()
    in
    ignore (Chan.accept chan ~into:consumer);
    ignore
      (Chan.on_doorbell chan ~events:(Kernel.events k) ~sched:(Kernel.sched k)
         (fun () -> ignore (Chan.recv_batch chan ())));
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) producer.Domain.id;
    let clock = Kernel.clock k in
    let placer = Placer.create ~clock () in
    Placer.manage_channel placer chan;
    let epoch () =
      let s0 = Chan.stats chan and t0 = Clock.now clock in
      for _ = 1 to 10 do
        Chan.send chan (Bytes.of_string "ring")
      done;
      let dt = Clock.now clock - t0 in
      let actions = Placer.epoch placer in
      let s1 = Chan.stats chan in
      ( s1.Chan.doorbells - s0.Chan.doorbells,
        s1.Chan.bell_cycles - s0.Chan.bell_cycles,
        dt, actions, Placer.doorbell_share placer )
    in
    let first = epoch () in
    let second = epoch () in
    [ (1, first, [ Placer.Hold ]); (2, second, [ Placer.Flipped Chan.Poll ]) ]
  in
  List.iter
    (fun (kernel_rung, label, crossing) ->
      List.iter
        (fun (n, (doorbells, bell_cycles, dt, actions, share), expected) ->
          let label = Printf.sprintf "%s, epoch %d" label n in
          Alcotest.(check int) (label ^ ": every send rang") 10 doorbells;
          Alcotest.(check int) (label ^ ": the crossings recorded") (10 * crossing)
            bell_cycles;
          Alcotest.(check (float 0.)) (label ^ ": share = crossings / epoch")
            (float_of_int (10 * crossing) /. float_of_int dt)
            share;
          Alcotest.(check bool) (label ^ ": share <= 1") true (share <= 1.);
          Alcotest.(check bool) (label ^ ": action") true (actions = expected))
        (run ~kernel_rung))
    [
      (* call 8 + two switches 640 + pop-up 60 *)
      (true, "kernel-rung", 708);
      (* trap 280 + two switches 640 + pop-up 60 *)
      (false, "user-rung", 980);
    ]

(* the other half of the channel decision: a polled channel that goes
   quiet goes back to sleeping on its doorbell, once two idle epochs in
   a row have asked *)
let test_placer_idle_flips_back () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k and udom = System.new_domain sys "idle-user" in
  let chan =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~slots:8 ~slot_size:16 ~mode:Chan.Poll
      ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  let clock = Kernel.clock k in
  let placer = Placer.create ~clock () in
  Placer.manage_channel placer chan;
  let epoch ~sends =
    for _ = 1 to sends do
      Chan.send chan (Bytes.of_string "poll")
    done;
    ignore (Chan.recv_batch chan ());
    Clock.advance clock 1_000;
    Placer.epoch placer
  in
  Alcotest.(check bool) "a busy epoch keeps polling" true (epoch ~sends:3 = [ Placer.Hold ]);
  Alcotest.(check bool) "the first idle epoch holds" true (epoch ~sends:0 = [ Placer.Hold ]);
  Alcotest.(check bool) "the second flips to doorbell" true
    (epoch ~sends:0 = [ Placer.Flipped Chan.Doorbell ]);
  Alcotest.(check bool) "the channel sleeps on its doorbell" true
    (Chan.mode chan = Chan.Doorbell);
  Alcotest.(check int) "one flip" 1 (Placer.flips placer)

(* --- clock snapshot helpers -------------------------------------------- *)

let test_clock_snapshot_diff () =
  let clock = Clock.create () in
  Clock.advance clock 100;
  Clock.count clock "a";
  Clock.count clock "a";
  Clock.count clock "b";
  let before = Clock.snapshot clock in
  Clock.advance clock 50;
  Clock.count clock "a";
  Clock.count clock "c";
  let d = Clock.since clock before in
  Alcotest.(check int) "elapsed cycles" 50 d.Clock.at;
  Alcotest.(check (list (pair string int)))
    "per-counter deltas, zeroes omitted"
    [ ("a", 1); ("c", 1) ]
    (List.sort compare d.Clock.counts)

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "nesting depth" `Quick test_span_nesting_depth;
          Alcotest.test_case "exception closes the span" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "exit keeps the enter rid" `Quick
            test_span_exit_keeps_enter_rid;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "bucket scheme" `Quick test_bucket_scheme;
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "disabled costs nothing" `Quick test_disabled_costs_nothing;
        ] );
      ( "histogram-edges",
        [
          Alcotest.test_case "empty and reset" `Quick test_histogram_empty;
          Alcotest.test_case "single sample" `Quick test_histogram_single_sample;
          Alcotest.test_case "power-of-two boundaries" `Quick
            test_bucket_power_boundaries;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "zero-cost invoke (E1 shape)" `Quick
            test_accounting_zero_cost_invoke;
          Alcotest.test_case "zero-cost cross-domain (E3/E4 shape)" `Quick
            test_accounting_zero_cost_cross_domain;
          Alcotest.test_case "reset keeps the journal" `Quick
            test_reset_keeps_history;
          Alcotest.test_case "span and sample agree" `Quick test_span_sample_agree;
          Alcotest.test_case "sched.switches per domain" `Quick
            test_sched_switches_per_domain;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~count:100 ~name:"view matches a per-domain model"
               ~print:(fun ops -> String.concat " " (List.map op_to_string ops))
               gen_ops prop_view_matches_model);
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "fixed-capacity ring" `Quick test_flightrec_ring;
          Alcotest.test_case "always on" `Quick test_flightrec_always_on;
        ] );
      ( "stats-namespace",
        [
          Alcotest.test_case "cross-domain reads" `Quick test_stats_namespace;
          Alcotest.test_case "interposable" `Quick test_stats_interposable;
          Alcotest.test_case "a name collision builds one object" `Quick
            test_stats_name_collision;
          Alcotest.test_case "a torn-down domain frees its name" `Quick
            test_stats_teardown_frees_name;
        ] );
      ( "placer",
        [
          Alcotest.test_case "hysteresis" `Quick test_placer_hysteresis;
          Alcotest.test_case "reset between epochs" `Quick test_placer_after_reset;
          Alcotest.test_case "bell share prices each ring as paid" `Quick
            test_placer_bell_share;
          Alcotest.test_case "idle channel flips back" `Quick test_placer_idle_flips_back;
        ] );
      ( "interposer",
        [
          Alcotest.test_case "transparent" `Quick test_interposer_transparent;
          Alcotest.test_case "remove refuses foreign entry" `Quick
            test_remove_refuses_foreign_entry;
        ] );
      ( "trace-service",
        [
          Alcotest.test_case "cross-domain via proxy" `Quick
            test_trace_service_cross_domain;
        ] );
      ( "clock",
        [
          Alcotest.test_case "snapshot/diff" `Quick test_clock_snapshot_diff;
        ] );
    ]

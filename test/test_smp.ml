(* Tests for a machine's CPUs: per-CPU clocks, reconciliation, IPIs,
   work stealing across per-CPU schedulers, cross-CPU channel pricing
   and doorbell routing, the journal's per-CPU provenance, and a kernel
   stepped on one CPU and on two. *)

open Paramecium

(* --- per-CPU clocks and reconciliation ---------------------------------- *)

let test_per_cpu_clocks () =
  let machine = Machine.create ~cpus:2 () in
  Alcotest.(check int) "two cpus" 2 (Cpu.count machine);
  let t0 = Cpu.now machine 0 in
  Cpu.run_on machine 1 (fun () -> Clock.advance (Machine.clock machine) 100);
  Alcotest.(check int) "cpu 0 untouched" t0 (Cpu.now machine 0);
  Alcotest.(check int) "cpu 1 advanced" (t0 + 100) (Cpu.now machine 1);
  Alcotest.(check int) "makespan is the max" (t0 + 100) (Cpu.makespan machine);
  (* run_on restores the active clock *)
  Clock.advance (Machine.clock machine) 7;
  Alcotest.(check int) "back on cpu 0" (t0 + 7) (Cpu.now machine 0)

let test_sync_forward_only () =
  let cpx = Machine.create ~cpus:2 () in
  let t0 = Cpu.now cpx 1 in
  Cpu.sync_to cpx ~cpu:1 ~at:(t0 + 50);
  Alcotest.(check int) "reconciled forward" (t0 + 50) (Cpu.now cpx 1);
  Alcotest.(check int) "idle cycles accounted" 50 (Cpu.stats cpx 1).Cpu.synced;
  Cpu.sync_to cpx ~cpu:1 ~at:t0;
  Alcotest.(check int) "never backward" (t0 + 50) (Cpu.now cpx 1)

(* --- IPIs --------------------------------------------------------------- *)

let test_ipi_to_halted_cpu () =
  let machine = Machine.create ~cpus:2 () in
  let hits = ref [] in
  Machine.set_trap_handler machine 5
    (Some
       (fun arg ->
         hits := (Cpu.current machine, arg) :: !hits;
         arg));
  Cpu.halt machine 1;
  Alcotest.(check bool) "halted" true (Cpu.halted machine 1);
  Cpu.run_on machine 0 (fun () ->
      Clock.advance (Machine.clock machine) 200;
      Cpu.ipi machine ~cpu:1 5 7);
  Alcotest.(check (list (pair int int)))
    "trap ran once, on the target cpu" [ (1, 7) ] !hits;
  Alcotest.(check bool) "ipi woke the target" false (Cpu.halted machine 1);
  (* the target reconciled to the send time, then paid the trap *)
  Alcotest.(check bool) "target caught up" true (Cpu.now machine 1 > Cpu.now machine 0);
  let s0 = Cpu.stats machine 0 and s1 = Cpu.stats machine 1 in
  Alcotest.(check int) "sender counted" 1 s0.Cpu.ipis_sent;
  Alcotest.(check int) "target counted" 1 s1.Cpu.ipis_recv;
  Alcotest.(check int) "sender paid the ipi"
    ((Machine.costs machine).Cost.ipi + 200)
    (Cpu.now machine 0)

(* --- work stealing ------------------------------------------------------ *)

let smp_fixture cpus =
  let cpx = Machine.create ~cpus () in
  let boot = Scheduler.create (Machine.clock cpx) (Machine.costs cpx) in
  (cpx, Smp.create cpx ~boot)

let test_steal_from_empty () =
  let cpx, smp = smp_fixture 2 in
  let t1 = Cpu.now cpx 1 in
  Alcotest.(check bool) "nothing to steal" false (Smp.try_steal smp ~thief:1);
  Alcotest.(check int) "an empty attempt is free" t1 (Cpu.now cpx 1);
  Alcotest.(check int) "attempt counted" 1 (Smp.stats smp `Steal_attempts);
  Alcotest.(check int) "no steal counted" 0 (Smp.stats smp `Steals)

let test_steal_spreads_load () =
  let cpx, smp = smp_fixture 2 in
  let where = ref [] in
  for i = 1 to 4 do
    ignore
      (Smp.spawn_on smp 0 ~name:(Printf.sprintf "w%d" i) (fun () ->
           for _ = 1 to 3 do
             where := Cpu.current cpx :: !where;
             Scheduler.yield ()
           done))
  done;
  let dispatches = Smp.run smp in
  Alcotest.(check bool) "work happened" true (dispatches > 0);
  Alcotest.(check bool) "cpu 1 stole something" true (Smp.stats smp `Steals > 0);
  Alcotest.(check bool) "stolen work ran on cpu 1" true (List.mem 1 !where);
  Alcotest.(check int) "all iterations ran" 12 (List.length !where);
  Alcotest.(check bool) "cpu 1 was charged" true (Cpu.now cpx 1 > 0)

(* A stolen thread is re-homed: a wakeup racing in after the steal must
   land on the thief's queue, not the victim's. *)
let test_steal_rehomes_wakeup () =
  let clock0 = Clock.create () in
  let clock1 = Clock.create () in
  let s0 = Scheduler.create clock0 Cost.unit_costs in
  let s1 = Scheduler.create clock1 Cost.unit_costs in
  let resumer = ref None in
  let log = ref [] in
  ignore
    (Scheduler.spawn s0 ~name:"wanderer" (fun () ->
         log := "start" :: !log;
         Scheduler.yield ();
         Scheduler.suspend (fun r -> resumer := Some r);
         log := "resumed" :: !log));
  ignore (Scheduler.run s0 ~budget:1 ());
  (* the yield parked it ready on s0; steal it over to s1 *)
  (match Scheduler.steal ~from:s0 ~into:s1 with
  | Some _ -> ()
  | None -> Alcotest.fail "ready entry was stealable");
  Alcotest.(check int) "victim emptied" 0 (Scheduler.ready_count s0);
  ignore (Scheduler.run s1 ~budget:1 ());
  (* now suspended on s1; the wakeup must follow the thread's new home *)
  (match !resumer with
  | Some r -> r.Scheduler.resume ()
  | None -> Alcotest.fail "thread suspended");
  Alcotest.(check int) "wakeup landed on the thief" 1 (Scheduler.ready_count s1);
  Alcotest.(check int) "not on the old home" 0 (Scheduler.ready_count s0);
  ignore (Scheduler.run s1 ());
  Alcotest.(check (list string)) "ran to completion on the thief"
    [ "start"; "resumed" ] (List.rev !log)

(* --- random schedules: determinism and the makespan bound -------------- *)

(* A schedule: 2–4 CPUs, stealing on or off, some CPUs other than 0
   halted at the start, and threads each homed on a CPU with chunks of
   work that yield between them; a thread may IPI a CPU after one of
   its chunks, which wakes that CPU if it is halted. *)
type schedule = {
  cpus : int;
  steal : bool;
  halted : bool list; (* CPUs 1.. *)
  threads : (int * int list * (int * int) option) list;
      (* home CPU, chunk cycles, (IPI target, after chunk) *)
}

let gen_schedule =
  QCheck2.Gen.(
    let* cpus = int_range 2 4 in
    let* steal = bool in
    let* halted = list_repeat (cpus - 1) bool in
    let* threads =
      list_size (int_range 1 8)
        (triple (int_bound (cpus - 1))
           (list_size (int_range 1 4) (int_range 1 300))
           (opt (pair (int_bound (cpus - 1)) (int_bound 3))))
    in
    return { cpus; steal; halted; threads })

let print_schedule s =
  Printf.sprintf "cpus=%d steal=%b halted=[%s] threads=[%s]" s.cpus s.steal
    (String.concat ";" (List.map string_of_bool s.halted))
    (String.concat "; "
       (List.map
          (fun (home, chunks, ipi) ->
            Printf.sprintf "%d:[%s]%s" home
              (String.concat "," (List.map string_of_int chunks))
              (match ipi with
              | Some (cpu, after) -> Printf.sprintf " ipi %d after %d" cpu after
              | None -> ""))
          s.threads))

(* Run a schedule on a fresh machine with a Full-mode journal: the
   journal's export, each CPU's clock before and after the run, the work
   each CPU ran, read from [Cpu.current] as each chunk runs, and the
   chunks whose cycles did not land on that CPU's clock. *)
let run_schedule s =
  let cpx, smp = smp_fixture s.cpus in
  let clock () = Machine.clock cpx in
  let j = Obs.journal (Clock.obs (clock ())) in
  Journal.set_mode j Journal.Full;
  let ran = Array.make s.cpus 0 and misplaced = ref 0 in
  Machine.set_trap_handler cpx 5
    (Some
       (fun arg ->
         ignore (Journal.mark j ~domain:0 ~at:(Clock.now (clock ())) (Printf.sprintf "ipi %d" arg));
         arg));
  List.iteri
    (fun i (home, chunks, ipi) ->
      ignore
        (Smp.spawn_on smp home ~name:(Printf.sprintf "t%d" i) (fun () ->
             List.iteri
               (fun c cycles ->
                 let cpu = Cpu.current cpx in
                 let before = Cpu.now cpx cpu in
                 Clock.advance (clock ()) cycles;
                 if Cpu.now cpx cpu - before <> cycles then incr misplaced;
                 ran.(cpu) <- ran.(cpu) + cycles;
                 ignore
                   (Journal.mark j ~domain:0 ~at:(Clock.now (clock ()))
                      (Printf.sprintf "t%d.%d" i c));
                 (match ipi with
                 | Some (cpu, after) when after = c -> Cpu.ipi cpx ~cpu 5 i
                 | _ -> ());
                 Scheduler.yield ())
               chunks)))
    s.threads;
  List.iteri (fun k h -> if h then Cpu.halt cpx (k + 1)) s.halted;
  let start = List.init s.cpus (Cpu.now cpx) in
  ignore (Smp.run ~steal:s.steal smp);
  (Journal.export j, start, List.init s.cpus (Cpu.now cpx), Array.to_list ran, !misplaced)

(* The same schedule twice gives byte-identical journals and clocks.
   Every chunk's cycles land on the clock of the CPU it ran on, so each
   CPU's clock advanced by at least the work it ran, and the makespan,
   from the earliest start, is at least the total work over the CPU
   count. *)
let schedule_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"random schedules replay and bound the makespan"
       ~print:print_schedule gen_schedule (fun s ->
         let journal, start, finish, ran, misplaced = run_schedule s in
         let journal', start', finish', ran', _ = run_schedule s in
         let work = List.fold_left ( + ) 0 ran in
         let makespan = List.fold_left max 0 finish in
         let earliest = List.fold_left min max_int start in
         if not (String.equal journal journal') then QCheck2.Test.fail_report "journals differ";
         if start <> start' || finish <> finish' || ran <> ran' then
           QCheck2.Test.fail_report "clocks or work differ";
         if misplaced > 0 then
           QCheck2.Test.fail_reportf "%d chunks charged another cpu's clock" misplaced;
         List.iteri
           (fun k w ->
             if List.nth finish k - List.nth start k < w then
               QCheck2.Test.fail_reportf "cpu %d ran %d cycles of work in %d" k w
                 (List.nth finish k - List.nth start k))
           ran;
         (makespan - earliest) * s.cpus >= work))

(* --- cross-CPU channel pricing and doorbell routing --------------------- *)

let sys_fixture () =
  let sys = System.create ~seed:0xBEEF ~cpus:2 () in
  let k = System.kernel sys in
  (sys, k, Kernel.kernel_domain k, System.cpu sys)

let test_cacheline_pricing () =
  let sys, k, kdom, cpx = sys_fixture () in
  let udom = System.new_domain sys "far-consumer" in
  let machine = Kernel.machine k in
  let chan =
    Chan.create machine (Kernel.vmem k) ~name:"cl" ~slots:8 ~slot_size:64
      ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  Chan.set_mode chan Chan.Poll;
  let msg = Bytes.make 10 'x' in
  let delta f =
    let t0 = Clock.now (Machine.clock machine) in
    f ();
    Clock.now (Machine.clock machine) - t0
  in
  (* a plain ring, endpoints on the same CPU: no cache lines move *)
  let send_same = delta (fun () -> ignore (Chan.try_send chan msg)) in
  let recv_same = delta (fun () -> ignore (Chan.try_recv chan)) in
  (* pin the endpoints apart: every message now pays the coherence
     fabric, on both sides, by the per-line model *)
  Cpu.pin cpx ~domain:udom.Domain.id ~cpu:1;
  Alcotest.(check bool) "ring is cross-cpu now" true (Chan.is_cross_cpu chan);
  let lines = Chan.lines_of_msg (Bytes.length msg) in
  let expect = lines * (Machine.costs machine).Cost.cacheline in
  let send_cross = delta (fun () -> ignore (Chan.try_send chan msg)) in
  let recv_cross = delta (fun () -> ignore (Chan.try_recv chan)) in
  Alcotest.(check int) "send pays the lines" (send_same + expect) send_cross;
  Alcotest.(check int) "recv pays the lines" (recv_same + expect) recv_cross

let test_cross_cpu_doorbell_ipi () =
  let sys, k, kdom, cpx = sys_fixture () in
  let api = Kernel.api k in
  let smp = System.smp sys in
  let udom = System.new_domain sys "bell-far" in
  let chan =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~name:"farbell" ~slots:8
      ~slot_size:16 ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  Cpu.pin cpx ~domain:udom.Domain.id ~cpu:1;
  Cpu.halt cpx 1;
  let got = ref [] in
  let ran_on = ref (-1) in
  ignore
    (Chan.on_doorbell chan ~events:api.Api.events ~sched:(Smp.sched smp 1)
       (fun () ->
         ran_on := Cpu.current cpx;
         got := !got @ List.map Bytes.to_string (Chan.recv_batch chan ())));
  ignore (Chan.try_send chan (Bytes.of_string "ping"));
  Alcotest.(check (list string)) "consumer drained the ring" [ "ping" ] !got;
  Alcotest.(check int) "pop-up ran on the consumer's cpu" 1 !ran_on;
  Alcotest.(check bool) "the doorbell ipi woke cpu 1" false (Cpu.halted cpx 1);
  Alcotest.(check int) "routed as an ipi" 1 (Cpu.stats cpx 0).Cpu.ipis_sent;
  Alcotest.(check int) "received as an ipi" 1 (Cpu.stats cpx 1).Cpu.ipis_recv

let test_mpsc_cas_contention () =
  let sys, k, kdom, cpx = sys_fixture () in
  let machine = Kernel.machine k in
  let p2 = System.new_domain sys "producer-2" in
  let g =
    Mpsc.create machine (Kernel.vmem k) ~name:"contended" ~slots:8
      ~slot_size:16 ~mode:Chan.Poll ~consumer:kdom ()
  in
  let tx1 = Mpsc.attach g ~producer:kdom in
  let tx2 = Mpsc.attach g ~producer:p2 in
  Cpu.pin cpx ~domain:p2.Domain.id ~cpu:1;
  let msg = Bytes.make 4 'y' in
  let delta f =
    let t0 = Clock.now (Machine.clock machine) in
    f ();
    Clock.now (Machine.clock machine) - t0
  in
  (* tx2 idle: tx1's reserve is the uncontended flat cost *)
  let quiet = delta (fun () -> ignore (Mpsc.try_send tx1 msg)) in
  (* tx2 pending from another CPU: tx1's reserve retries the CAS once *)
  Cpu.run_on cpx 1 (fun () -> ignore (Mpsc.try_send tx2 msg));
  let contended = delta (fun () -> ignore (Mpsc.try_send tx1 msg)) in
  Alcotest.(check int) "one contender costs one cas"
    (quiet + (Machine.costs machine).Cost.cas)
    contended;
  Alcotest.(check bool) "retries counted" true
    (Clock.counter (Machine.clock machine) "mpsc_cas_retry" > 0)

(* --- journal provenance ------------------------------------------------- *)

let test_journal_cpu_roundtrip () =
  let j = Journal.create () in
  Journal.set_mode j Journal.Full;
  ignore (Journal.mark j ~domain:0 ~at:5 "boot-cpu");
  Journal.set_cpu j 2;
  ignore (Journal.mark j ~domain:0 ~at:9 "far-cpu");
  Journal.set_cpu j 0;
  let s = Journal.export j in
  let has_cpu_suffix line =
    let re = " cpu=" in
    let n = String.length re in
    let rec scan i =
      i + n <= String.length line
      && (String.equal (String.sub line i n) re || scan (i + 1))
    in
    scan 0
  in
  let lines =
    List.filter
      (fun l -> String.length l > 0 && l.[0] <> '#')
      (String.split_on_char '\n' s)
  in
  (* only the far-cpu event carries the suffix: cpu 0 lines export
     exactly as before the field existed *)
  Alcotest.(check int) "one line has the cpu suffix" 1
    (List.length (List.filter has_cpu_suffix lines));
  (match Journal.import s with
  | Error e -> Alcotest.fail e
  | Ok evs ->
    Alcotest.(check (list int))
      "cpu ids survive the round-trip" [ 0; 2 ]
      (List.map (fun (e : Journal.event) -> e.Journal.cpu) evs);
    (* a second export of the imported stream is byte-identical *)
    let j2 = Journal.create () in
    Journal.set_mode j2 Journal.Full;
    List.iter
      (fun (e : Journal.event) ->
        Journal.set_cpu j2 e.Journal.cpu;
        Journal.record j2 ~kind:e.Journal.kind ~domain:e.Journal.domain
          ~at:e.Journal.at ~info:e.Journal.info ~detail:e.Journal.detail)
      evs;
    Journal.set_cpu j2 0)

(* One machine's CPU switch stamps its own journal and no other. *)
let test_cpu_stamp_per_machine () =
  let a = Machine.create () in
  let b = Machine.create ~cpus:2 () in
  let journal m = Obs.journal (Clock.obs (Machine.clock m)) in
  Machine.switch_cpu b 1;
  Fun.protect
    ~finally:(fun () -> Machine.switch_cpu b 0)
    (fun () ->
      ignore (Journal.mark (journal a) ~domain:0 ~at:0 "on-a");
      ignore (Journal.mark (journal b) ~domain:0 ~at:0 "on-b"));
  let cpu_of m label =
    match List.find_opt (fun e -> e.Journal.detail = label) (Journal.tail (journal m)) with
    | Some e -> e.Journal.cpu
    | None -> Alcotest.failf "no %s event" label
  in
  Alcotest.(check int) "A's event is on A's cpu 0" 0 (cpu_of a "on-a");
  Alcotest.(check int) "B's event is on B's cpu 1" 1 (cpu_of b "on-b")

(* --- Kernel.step at any CPU count ----------------------------------------- *)

(* The RPC demo's shape: loopback networking, a server pumped by a
   thread that polls and yields, and a client making four calls. Every
   reply needs device ticks between dispatches, so this only completes
   when [Kernel.step]'s dispatch budget holds on every CPU count. *)
let test_step_rpc cpus () =
  let sys = System.create ~seed:21 ~cpus () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  ignore
    (System.setup_networking sys ~placement:System.Certified ~addr:42
       ~loopback:true ());
  let int_of b off = Int32.to_int (Bytes.get_int32_be b off) in
  let enc ints =
    let b = Bytes.create (4 * List.length ints) in
    List.iteri (fun i v -> Bytes.set_int32_be b (4 * i) (Int32.of_int v)) ints;
    b
  in
  let binop f _ctx b = f (int_of b 0) (int_of b 4) in
  let procedures =
    [ ("add", binop (fun a b -> Ok (enc [ a + b ])));
      ("mul", binop (fun a b -> Ok (enc [ a * b ])));
      ("div", binop (fun a b ->
           if b = 0 then Error "division by zero" else Ok (enc [ a / b ]))) ]
  in
  let server =
    Rpc.create_server api kdom ~stack_path:"/services/stack" ~port:100 ~procedures
  in
  let client =
    Rpc.create_client api kdom ~stack_path:"/services/stack" ~port:200
      ~server:(42, 100) ()
  in
  let ctx = Kernel.ctx k kdom in
  let sched = Kernel.sched k in
  ignore
    (Scheduler.spawn sched ~name:"rpc-server" ~domain:kdom.Domain.id (fun () ->
         for _ = 1 to 2_000 do
           ignore (Invoke.call_exn ctx server ~iface:"rpc.server" ~meth:"poll" []);
           Scheduler.yield ()
         done));
  let results = ref [] in
  ignore
    (Scheduler.spawn sched ~name:"rpc-client" ~domain:kdom.Domain.id (fun () ->
         let call name a b =
           match
             Invoke.call ctx client ~iface:"rpc" ~meth:"call"
               [ Value.Str name; Value.Blob (enc [ a; b ]) ]
           with
           | Ok (Value.Blob r) -> Ok (int_of r 0)
           | Ok v -> Error (Value.to_string v)
           | Error e -> Error (Oerror.to_string e)
         in
         let add = call "add" 2 40 in
         let mul = call "mul" 6 7 in
         let div = call "div" 84 2 in
         results := [ add; mul; div; call "div" 1 0 ]));
  Kernel.step k ~ticks:400 ();
  match !results with
  | [ add; mul; div; div0 ] ->
    List.iter
      (fun (label, r) ->
        Alcotest.(check (result int string)) label (Ok 42) r)
      [ ("add", add); ("mul", mul); ("div", div) ];
    Alcotest.(check (result int string)) "remote division-by-zero error"
      (Error (Oerror.to_string (Oerror.Fault "rpc: remote error: division by zero")))
      div0
  | _ -> Alcotest.fail "the client thread did not finish its four calls"

let () =
  Alcotest.run "smp"
    [
      ( "complex",
        [
          Alcotest.test_case "per-cpu clocks" `Quick test_per_cpu_clocks;
          Alcotest.test_case "sync forward only" `Quick test_sync_forward_only;
          Alcotest.test_case "ipi to halted cpu" `Quick test_ipi_to_halted_cpu;
        ] );
      ( "stealing",
        [
          Alcotest.test_case "steal from empty" `Quick test_steal_from_empty;
          Alcotest.test_case "steal spreads load" `Quick test_steal_spreads_load;
          Alcotest.test_case "steal re-homes wakeups" `Quick
            test_steal_rehomes_wakeup;
          schedule_prop;
        ] );
      ( "channels",
        [
          Alcotest.test_case "cache-line pricing" `Quick test_cacheline_pricing;
          Alcotest.test_case "cross-cpu doorbell is an ipi" `Quick
            test_cross_cpu_doorbell_ipi;
          Alcotest.test_case "mpsc cas contention" `Quick
            test_mpsc_cas_contention;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "journal cpu round-trip" `Quick
            test_journal_cpu_roundtrip;
          Alcotest.test_case "cpu stamp is per machine" `Quick
            test_cpu_stamp_per_machine;
        ] );
      ( "step",
        List.map
          (fun cpus ->
            Alcotest.test_case
              (Printf.sprintf "rpc answers on %d cpu(s)" cpus)
              `Quick (test_step_rpc cpus))
          [ 1; 2 ] );
    ]

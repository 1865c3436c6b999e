(* Tests for the thread package: scheduler, priorities, synchronization,
   and the proto-thread / pop-up thread machinery. *)

open Paramecium

let sched_fixture () =
  let clock = Clock.create () in
  (clock, Scheduler.create clock Cost.unit_costs)

(* --- basic scheduling --------------------------------------------------- *)

let test_spawn_and_run () =
  let _, s = sched_fixture () in
  let log = ref [] in
  let note x = log := x :: !log in
  ignore (Scheduler.spawn s ~name:"a" (fun () -> note "a"));
  ignore (Scheduler.spawn s ~name:"b" (fun () -> note "b"));
  Alcotest.(check int) "two live" 2 (Scheduler.live s);
  let dispatches = Scheduler.run s () in
  Alcotest.(check int) "two dispatches" 2 dispatches;
  Alcotest.(check (list string)) "fifo order" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "none live" 0 (Scheduler.live s)

let test_yield_interleaves () =
  let _, s = sched_fixture () in
  let log = Buffer.create 16 in
  let worker c () =
    for _ = 1 to 3 do
      Buffer.add_char log c;
      Scheduler.yield ()
    done
  in
  ignore (Scheduler.spawn s (worker 'x'));
  ignore (Scheduler.spawn s (worker 'y'));
  ignore (Scheduler.run s ());
  Alcotest.(check string) "round robin" "xyxyxy" (Buffer.contents log)

let test_priorities () =
  let _, s = sched_fixture () in
  let log = Buffer.create 16 in
  (* spawn low first; high priority must still run first *)
  ignore (Scheduler.spawn s ~priority:6 (fun () -> Buffer.add_char log 'l'));
  ignore (Scheduler.spawn s ~priority:1 (fun () -> Buffer.add_char log 'h'));
  ignore (Scheduler.run s ());
  Alcotest.(check string) "high first" "hl" (Buffer.contents log);
  (match Scheduler.spawn s ~priority:99 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad priority rejected")

let test_budget () =
  let _, s = sched_fixture () in
  let spins = ref 0 in
  ignore
    (Scheduler.spawn s (fun () ->
         while !spins < 100 do
           incr spins;
           Scheduler.yield ()
         done));
  let d = Scheduler.run s ~budget:5 () in
  Alcotest.(check int) "budget respected" 5 d;
  Alcotest.(check bool) "thread still live" true (Scheduler.live s > 0);
  ignore (Scheduler.run s ());
  Alcotest.(check int) "completes later" 100 !spins

let test_crash_isolated () =
  let clock, s = sched_fixture () in
  let survived = ref false in
  ignore (Scheduler.spawn s ~name:"crasher" (fun () -> failwith "boom"));
  ignore (Scheduler.spawn s ~name:"survivor" (fun () -> survived := true));
  ignore (Scheduler.run s ());
  Alcotest.(check bool) "other threads unaffected" true !survived;
  Alcotest.(check int) "crash counted" 1 (Scheduler.stats s `Crashes);
  Alcotest.(check int) "crash in clock counters" 1 (Clock.counter clock "thread_crash");
  Alcotest.(check int) "no leaked live" 0 (Scheduler.live s)

let test_self () =
  let _, s = sched_fixture () in
  let seen = ref None in
  let th = Scheduler.spawn s ~name:"me" (fun () -> seen := Some (Scheduler.self ())) in
  ignore (Scheduler.run s ());
  (match !seen with
  | Some me -> Alcotest.(check int) "self is me" th.Scheduler.tid me.Scheduler.tid
  | None -> Alcotest.fail "self not captured")

(* A thief takes the victim's oldest ready entry, whatever its
   priority, and re-homes the thread: a priority-7 thread spawned before
   a priority-0 one is the entry that moves. *)
let test_steal_takes_oldest () =
  let clock, victim = sched_fixture () in
  let thief = Scheduler.create clock Cost.unit_costs in
  let log = Buffer.create 8 in
  let low = Scheduler.spawn victim ~priority:7 (fun () -> Buffer.add_char log 'l') in
  ignore (Scheduler.spawn victim ~priority:0 (fun () -> Buffer.add_char log 'h'));
  (match Scheduler.steal ~from:victim ~into:thief with
  | Some (_, th) ->
    Alcotest.(check int) "the older entry moved" low.Scheduler.tid th.Scheduler.tid;
    Alcotest.(check bool) "re-homed on the thief" true
      (match th.Scheduler.home with Some s -> s == thief | None -> false)
  | None -> Alcotest.fail "nothing stolen");
  Alcotest.(check int) "one entry left behind" 1 (Scheduler.ready_count victim);
  ignore (Scheduler.run thief ());
  Alcotest.(check string) "the thief ran it" "l" (Buffer.contents log);
  ignore (Scheduler.run victim ());
  Alcotest.(check string) "the victim ran the rest" "lh" (Buffer.contents log)

(* --- waitq / semaphore / ivar ---------------------------------------- *)

let test_waitq () =
  let _, s = sched_fixture () in
  let q = Sync.Waitq.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Scheduler.spawn s (fun () ->
           Sync.Waitq.wait q;
           incr woken))
  done;
  ignore (Scheduler.run s ());
  Alcotest.(check int) "all parked" 3 (Sync.Waitq.length q);
  Alcotest.(check bool) "signal" true (Sync.Waitq.signal q);
  ignore (Scheduler.run s ());
  Alcotest.(check int) "one woken" 1 !woken;
  Alcotest.(check int) "broadcast" 2 (Sync.Waitq.broadcast q);
  ignore (Scheduler.run s ());
  Alcotest.(check int) "all woken" 3 !woken;
  Alcotest.(check bool) "empty signal" false (Sync.Waitq.signal q)

let test_semaphore () =
  let _, s = sched_fixture () in
  let sem = Sync.Semaphore.create 2 in
  let inside = ref 0 and peak = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Scheduler.spawn s (fun () ->
           Sync.Semaphore.acquire sem;
           incr inside;
           if !inside > !peak then peak := !inside;
           Scheduler.yield ();
           decr inside;
           Sync.Semaphore.release sem))
  done;
  ignore (Scheduler.run s ());
  Alcotest.(check int) "at most 2 inside" 2 !peak;
  Alcotest.(check int) "value restored" 2 (Sync.Semaphore.value sem);
  Alcotest.(check bool) "try_acquire" true (Sync.Semaphore.try_acquire sem)

let test_ivar () =
  let _, s = sched_fixture () in
  let iv = Sync.Ivar.create () in
  let got = ref [] in
  for _ = 1 to 2 do
    ignore
      (Scheduler.spawn s (fun () ->
           (* bind first: [::] evaluates right-to-left, so inlining the
              read would snapshot [!got] before suspending *)
           let v = Sync.Ivar.read iv in
           got := v :: !got))
  done;
  ignore (Scheduler.run s ());
  Alcotest.(check (option int)) "unfilled peek" None (Sync.Ivar.peek iv);
  Sync.Ivar.fill iv 7;
  ignore (Scheduler.run s ());
  Alcotest.(check (list int)) "both readers" [ 7; 7 ] !got;
  (match Sync.Ivar.fill iv 8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double fill rejected")

(* --- pop-up threads ------------------------------------------------------ *)

let test_popup_fast_path () =
  let clock, s = sched_fixture () in
  let ran = ref false in
  let fast = Scheduler.popup s (fun () -> ran := true) in
  Alcotest.(check bool) "completed inline" true fast;
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "no promotion" 0 (Scheduler.stats s `Promotions);
  Alcotest.(check int) "fast counted" 1 (Scheduler.stats s `Popup_fast);
  Alcotest.(check int) "proto cost charged" 1 (Clock.counter clock "proto_thread");
  Alcotest.(check int) "no live threads" 0 (Scheduler.live s)

let test_popup_promotes_on_block () =
  let clock, s = sched_fixture () in
  let sem = Sync.Semaphore.create 0 in
  let finished = ref false in
  let fast =
    Scheduler.popup s (fun () ->
        Sync.Semaphore.acquire sem;
        finished := true)
  in
  Alcotest.(check bool) "did not complete inline" false fast;
  Alcotest.(check int) "promoted" 1 (Scheduler.stats s `Promotions);
  Alcotest.(check int) "promotion cost charged" 1 (Clock.counter clock "popup_promotion");
  Alcotest.(check int) "now a live thread" 1 (Scheduler.live s);
  Sync.Semaphore.release sem;
  ignore (Scheduler.run s ());
  Alcotest.(check bool) "completed under scheduler" true !finished;
  Alcotest.(check int) "no live threads" 0 (Scheduler.live s)

let test_popup_promotes_on_yield () =
  let _, s = sched_fixture () in
  let steps = ref 0 in
  let fast =
    Scheduler.popup s (fun () ->
        incr steps;
        Scheduler.yield ();
        incr steps)
  in
  Alcotest.(check bool) "rescheduling promotes" false fast;
  Alcotest.(check int) "first part ran inline" 1 !steps;
  ignore (Scheduler.run s ());
  Alcotest.(check int) "second part under scheduler" 2 !steps

let test_popup_promotes_once () =
  let _, s = sched_fixture () in
  ignore
    (Scheduler.popup s (fun () ->
         Scheduler.yield ();
         Scheduler.yield ();
         Scheduler.yield ()));
  ignore (Scheduler.run s ());
  Alcotest.(check int) "single promotion" 1 (Scheduler.stats s `Promotions)

let test_popup_crash_isolated () =
  let _, s = sched_fixture () in
  let fast = Scheduler.popup s (fun () -> failwith "interrupt handler bug") in
  Alcotest.(check bool) "crash still counts as completed-inline path" true fast;
  Alcotest.(check int) "crash counted" 1 (Scheduler.stats s `Crashes);
  Alcotest.(check int) "no live threads" 0 (Scheduler.live s)

let test_popup_nested_in_thread () =
  (* an "interrupt" arriving while a thread runs: popup nests fine *)
  let _, s = sched_fixture () in
  let order = Buffer.create 8 in
  ignore
    (Scheduler.spawn s (fun () ->
         Buffer.add_char order 't';
         ignore (Scheduler.popup s (fun () -> Buffer.add_char order 'i'));
         Buffer.add_char order 'r'));
  ignore (Scheduler.run s ());
  Alcotest.(check string) "interrupt preempts inline" "tir" (Buffer.contents order)

let test_effects_outside_thread_rejected () =
  (match Scheduler.yield () with
  | exception Effect.Unhandled _ -> ()
  | _ -> Alcotest.fail "yield outside thread must be unhandled")

(* --- properties ------------------------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

let props =
  [
    prop "every spawned thread runs to completion"
      QCheck2.Gen.(list_size (int_range 1 20) (int_bound 3))
      (fun yields ->
        let _, s = sched_fixture () in
        let completed = ref 0 in
        List.iter
          (fun y ->
            ignore
              (Scheduler.spawn s (fun () ->
                   for _ = 1 to y do
                     Scheduler.yield ()
                   done;
                   incr completed)))
          yields;
        ignore (Scheduler.run s ());
        !completed = List.length yields && Scheduler.live s = 0);
    prop "popup fast-path iff body performs no effect"
      QCheck2.Gen.(list_size (int_range 1 15) bool)
      (fun blocks ->
        let _, s = sched_fixture () in
        let ok = ref true in
        List.iter
          (fun b ->
            let fast = Scheduler.popup s (fun () -> if b then Scheduler.yield ()) in
            if fast = b then ok := false)
          blocks;
        ignore (Scheduler.run s ());
        !ok && Scheduler.live s = 0);
    prop "semaphore never over-admits"
      QCheck2.Gen.(pair (int_range 1 4) (int_range 1 12))
      (fun (cap, threads) ->
        let _, s = sched_fixture () in
        let sem = Sync.Semaphore.create cap in
        let inside = ref 0 and peak = ref 0 in
        for _ = 1 to threads do
          ignore
            (Scheduler.spawn s (fun () ->
                 Sync.Semaphore.acquire sem;
                 incr inside;
                 if !inside > !peak then peak := !inside;
                 Scheduler.yield ();
                 decr inside;
                 Sync.Semaphore.release sem))
        done;
        ignore (Scheduler.run s ());
        !peak <= cap && Scheduler.live s = 0);
  ]

let () =
  Alcotest.run "threads"
    [
      ( "scheduler",
        [
          Alcotest.test_case "spawn and run" `Quick test_spawn_and_run;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "priorities" `Quick test_priorities;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "crash isolated" `Quick test_crash_isolated;
          Alcotest.test_case "self" `Quick test_self;
          Alcotest.test_case "a thief takes the oldest entry" `Quick
            test_steal_takes_oldest;
        ] );
      ( "sync",
        [
          Alcotest.test_case "waitq" `Quick test_waitq;
          Alcotest.test_case "semaphore" `Quick test_semaphore;
          Alcotest.test_case "ivar" `Quick test_ivar;
        ] );
      ( "popup",
        [
          Alcotest.test_case "fast path" `Quick test_popup_fast_path;
          Alcotest.test_case "promotes on block" `Quick test_popup_promotes_on_block;
          Alcotest.test_case "promotes on yield" `Quick test_popup_promotes_on_yield;
          Alcotest.test_case "promotes once" `Quick test_popup_promotes_once;
          Alcotest.test_case "crash isolated" `Quick test_popup_crash_isolated;
          Alcotest.test_case "nested in thread" `Quick test_popup_nested_in_thread;
          Alcotest.test_case "effects outside thread" `Quick
            test_effects_outside_thread_rejected;
        ] );
      ("properties", props);
    ]

module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost

type state = Ready | Running | Blocked | Finished

type policy = Priority | Fifo | Lottery of int

type thread = {
  tid : int;
  name : string;
  priority : int;
  mutable state : state;
  is_popup : bool;
  domain : int option;
  mutable home : t option;
      (* scheduler the thread currently lands on when it becomes ready
         again; [None] means its creator. The SMP work-stealer re-homes
         stolen threads so their later yields and wakeups stay on the
         thief's CPU. *)
}

and t = {
  clock : Clock.t;
  costs : Cost.t;
  policy : policy;
  mutable lottery_state : int; (* xorshift state for Lottery *)
  mutable arrivals : int; (* stamp source for Fifo ordering *)
  mutable mmu : Pm_machine.Mmu.t option;
  ready : (int * int * thread * (unit -> unit)) Queue.t array;
      (* (arrival stamp, ready-at cycles, thread, continuation) per
         priority. [ready_at] is the enqueuing CPU's virtual time — a
         thief reconciles its clock to it before running the entry. *)
  mutable cur : thread option;
  mutable next_tid : int;
  mutable live : int;
  mutable spawned : int;
  mutable popups : int;
  mutable popup_fast : int;
  mutable promotions : int;
  mutable switches : int;
  mutable crashes : int;
}

type resumer = { thread : thread; resume : unit -> unit }

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : (resumer -> unit) -> unit Effect.t
  | Self : thread Effect.t

let priorities = 8

let create ?(policy = Priority) clock costs =
  {
    clock;
    costs;
    policy;
    lottery_state = (match policy with Lottery seed -> (seed lor 1) land 0x3FFFFFFF | _ -> 1);
    arrivals = 0;
    mmu = None;
    ready = Array.init priorities (fun _ -> Queue.create ());
    cur = None;
    next_tid = 1;
    live = 0;
    spawned = 0;
    popups = 0;
    popup_fast = 0;
    promotions = 0;
    switches = 0;
    crashes = 0;
  }

let set_mmu t mmu = t.mmu <- Some mmu

let check_priority p =
  if p < 0 || p >= priorities then invalid_arg "Scheduler: bad priority"

let enqueue t th fn =
  t.arrivals <- t.arrivals + 1;
  Queue.push (t.arrivals, Clock.now t.clock, th, fn) t.ready.(th.priority)

(* The scheduler a thread's next enqueue should land on: its re-homed
   target after a steal, its creator otherwise. Resolved at enqueue
   time, never captured, so a steal retargets every later wakeup. *)
let home_of t th = match th.home with Some s -> s | None -> t

let fresh_thread t ?(priority = priorities / 2) ?(name = "thread") ?domain ~is_popup () =
  check_priority priority;
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  { tid; name; priority; state = Ready; is_popup; domain; home = None }

(* A crashing thread dumps the flight recorder's tail: the last few
   traps, faults, crossings and dispatches before the crash. *)
let dump_flight t =
  Logs.warn (fun m ->
      m "%s" (Pm_journal.Journal.flight_to_text (Pm_obs.Obs.journal (Clock.obs t.clock)) 8))

(* The crash itself goes into the journal (plain stores), so a replayed
   run reproduces the death in its history. *)
let record_crash t th =
  Pm_journal.Journal.record
    (Pm_obs.Obs.journal (Clock.obs t.clock))
    ~kind:Pm_journal.Journal.Crash
    ~domain:(Option.value th.domain ~default:0)
    ~at:(Clock.now t.clock) ~info:th.tid ~detail:th.name

(* Handler shared by full threads and promoted proto-threads: bookkeeping
   on return/crash, and the Yield/Suspend/Self protocol. *)
let thread_handler t th : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  {
    retc =
      (fun () ->
        th.state <- Finished;
        t.live <- t.live - 1);
    exnc =
      (fun exn ->
        th.state <- Finished;
        t.live <- t.live - 1;
        t.crashes <- t.crashes + 1;
        Clock.count t.clock "thread_crash";
        Logs.warn (fun m ->
            m "thread %d (%s) crashed: %s" th.tid th.name (Printexc.to_string exn));
        record_crash t th;
        dump_flight t);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
          Some
            (fun (k : (a, unit) continuation) ->
              th.state <- Ready;
              enqueue (home_of t th) th (fun () -> continue k ()))
        | Suspend register ->
          Some
            (fun (k : (a, unit) continuation) ->
              th.state <- Blocked;
              let resume () =
                assert (th.state = Blocked);
                th.state <- Ready;
                enqueue (home_of t th) th (fun () -> continue k ())
              in
              register { thread = th; resume })
        | Self -> Some (fun (k : (a, unit) continuation) -> continue k th)
        | _ -> None);
  }

let spawn t ?priority ?name ?domain body =
  let th = fresh_thread t ?priority ?name ?domain ~is_popup:false () in
  Clock.advance t.clock t.costs.Cost.thread_create;
  Clock.count t.clock "thread_create";
  t.live <- t.live + 1;
  t.spawned <- t.spawned + 1;
  enqueue t th (fun () -> Effect.Deep.match_with body () (thread_handler t th));
  th

(* A proto-thread runs the body immediately under a handler that, on the
   first Yield/Suspend, pays the promotion cost and books the fiber as a
   real thread; later effects in the same fiber behave like a normal
   thread's (the handler stays installed for the fiber's lifetime). *)
let popup t ?(priority = 1) ?(name = "popup") ?domain body =
  check_priority priority;
  Clock.advance t.clock t.costs.Cost.proto_thread;
  Clock.count t.clock "proto_thread";
  t.popups <- t.popups + 1;
  let th = fresh_thread t ~priority ~name ?domain ~is_popup:true () in
  let promoted = ref false in
  let promote () =
    if not !promoted then begin
      promoted := true;
      Clock.advance t.clock t.costs.Cost.promote;
      Clock.count t.clock "popup_promotion";
      t.promotions <- t.promotions + 1;
      t.live <- t.live + 1
    end
  in
  let open Effect.Deep in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          if !promoted then t.live <- t.live - 1 else t.popup_fast <- t.popup_fast + 1;
          th.state <- Finished);
      exnc =
        (fun exn ->
          if !promoted then t.live <- t.live - 1;
          th.state <- Finished;
          t.crashes <- t.crashes + 1;
          Clock.count t.clock "thread_crash";
          Logs.warn (fun m ->
              m "popup %d (%s) crashed: %s" th.tid th.name (Printexc.to_string exn));
          record_crash t th;
          dump_flight t);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                promote ();
                th.state <- Ready;
                enqueue (home_of t th) th (fun () -> continue k ()))
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                promote ();
                th.state <- Blocked;
                let resume () =
                  assert (th.state = Blocked);
                  th.state <- Ready;
                  enqueue (home_of t th) th (fun () -> continue k ())
                in
                register { thread = th; resume })
          | Self -> Some (fun (k : (a, unit) continuation) -> continue k th)
          | _ -> None);
    }
  in
  th.state <- Running;
  match_with body () handler;
  not !promoted

(* xorshift step, deterministic per seed; cheap and dependency-free *)
let lottery_draw t bound =
  let x = t.lottery_state in
  let x = x lxor (x lsl 13) land 0x3FFFFFFF in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land 0x3FFFFFFF in
  t.lottery_state <- x;
  x mod bound

let take_by_priority t =
  let rec scan p =
    if p >= priorities then None
    else begin
      match Queue.take_opt t.ready.(p) with
      | Some entry -> Some entry
      | None -> scan (p + 1)
    end
  in
  scan 0

(* oldest stamp across every priority level *)
let take_fifo t =
  let best = ref None in
  Array.iteri
    (fun p q ->
      match Queue.peek_opt q with
      | Some (stamp, _, _, _) ->
        (match !best with
        | Some (s, _) when s <= stamp -> ()
        | _ -> best := Some (stamp, p))
      | None -> ())
    t.ready;
  match !best with Some (_, p) -> Queue.take_opt t.ready.(p) | None -> None

(* a level-p thread holds (priorities - p) tickets per queued entry *)
let take_lottery t =
  let tickets = ref 0 in
  Array.iteri
    (fun p q -> tickets := !tickets + (Queue.length q * (priorities - p)))
    t.ready;
  if !tickets = 0 then None
  else begin
    let winner = lottery_draw t !tickets in
    let acc = ref 0 in
    let chosen = ref None in
    Array.iteri
      (fun p q ->
        if !chosen = None then begin
          let weight = Queue.length q * (priorities - p) in
          if winner < !acc + weight then chosen := Some p else acc := !acc + weight
        end)
      t.ready;
    match !chosen with Some p -> Queue.take_opt t.ready.(p) | None -> None
  end

let take_ready t =
  match t.policy with
  | Priority -> take_by_priority t
  | Fifo -> take_fifo t
  | Lottery _ -> take_lottery t

let ready_count t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.ready

(* Steal the oldest ready entry from [from] and queue it on [into],
   re-homing the thread so its later yields and wakeups stay with the
   thief. Oldest-first is the classic stealing choice and independent of
   the victim's dispatch policy. Pricing (cache-line transfer of the
   queue entry) and clock reconciliation to [ready_at] belong to the SMP
   layer, which knows whose clock is whose. *)
let steal ~from ~into =
  match take_fifo from with
  | None -> None
  | Some (_, ready_at, th, fn) ->
    th.home <- Some into;
    enqueue into th fn;
    Some (ready_at, th)

let run t ?budget () =
  let dispatches = ref 0 in
  let exhausted () =
    match budget with Some b -> !dispatches >= b | None -> false
  in
  let rec loop () =
    if exhausted () then ()
    else begin
      match take_ready t with
      | None -> ()
      | Some (_, _, th, fn) ->
        incr dispatches;
        t.switches <- t.switches + 1;
        Clock.advance t.clock t.costs.Cost.thread_switch;
        Clock.count t.clock "thread_switch";
        let obs = Clock.obs t.clock in
        let th_dom = Option.value th.domain ~default:0 in
        (* always-on flight record of the dispatch *)
        Pm_journal.Journal.record (Pm_obs.Obs.journal obs) ~kind:Pm_journal.Journal.Sched
          ~domain:th_dom ~at:(Clock.now t.clock) ~info:th.tid ~detail:"";
        if Pm_obs.Obs.enabled obs then begin
          (* the ready queue is system-wide (domain 0); a switch is billed
             to the domain of the thread it dispatches *)
          Pm_obs.Obs.set_gauge obs ~domain:0 "sched.ready" (ready_count t);
          Pm_obs.Obs.incr obs ~domain:th_dom "sched.switches"
        end;
        (match (th.domain, t.mmu) with
        | Some d, Some mmu -> Pm_machine.Mmu.switch_context mmu d
        | _ -> ());
        let prev = t.cur in
        t.cur <- Some th;
        th.state <- Running;
        fn ();
        t.cur <- prev;
        loop ()
    end
  in
  loop ();
  !dispatches

let yield () = Effect.perform Yield
let suspend register = Effect.perform (Suspend register)
let self () = Effect.perform Self

let live t = t.live

let stats t = function
  | `Spawned -> t.spawned
  | `Popups -> t.popups
  | `Popup_fast -> t.popup_fast
  | `Promotions -> t.promotions
  | `Switches -> t.switches
  | `Crashes -> t.crashes

(* Per-CPU scheduling over a machine's CPUs.

   One {!Scheduler.t} per CPU, each bound to that CPU's clock so every
   dispatch, promotion and crash it charges lands on the right core.
   [run] interleaves the CPUs with a deterministic round-robin sweep —
   one dispatch per CPU per pass — so the simulation is reproducible
   while per-CPU clocks advance independently between synchronization
   points. On one CPU a sweep is one dispatch of that CPU's scheduler,
   so [run] dispatches in exactly {!Scheduler.run}'s order.

   Work stealing: a CPU whose own queue is empty takes the oldest ready
   entry from the most-loaded sibling (ties to the lowest CPU id). The
   thief reconciles its clock to the entry's ready-at time — the thread
   cannot run before it existed — and pays {!Pm_machine.Cost.steal} for
   pulling the queue entry's cache lines across. {!Scheduler.steal}
   re-homes the thread so its later yields and wakeups stay with the
   thief. *)

module Machine = Pm_machine.Machine
module Cpu = Pm_machine.Cpu
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost

type t = {
  cpu : Cpu.t;
  costs : Cost.t;
  scheds : Scheduler.t array;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable dispatches : int;
}

let create cpu ~boot =
  let costs = Machine.costs cpu in
  let scheds =
    Array.init (Cpu.count cpu) (fun i ->
        if i = 0 then boot
        else begin
          let s = Scheduler.create (Cpu.clock_of cpu i) costs in
          Scheduler.set_mmu s (Machine.mmu cpu);
          s
        end)
  in
  { cpu; costs; scheds; steals = 0; steal_attempts = 0; dispatches = 0 }

let sched t k =
  if k < 0 || k >= Array.length t.scheds then
    invalid_arg (Printf.sprintf "Smp.sched: no cpu %d" k);
  t.scheds.(k)

let spawn_on t k ?name body =
  let s = sched t k in
  (* creation charges land on the target CPU's clock *)
  Cpu.run_on t.cpu k (fun () -> Scheduler.spawn s ?name body)

(* Most-loaded sibling with work to take; ties go to the lowest id so
   the sweep stays deterministic. *)
let victim t ~thief =
  let best = ref None in
  Array.iteri
    (fun i s ->
      if i <> thief then begin
        let n = Scheduler.ready_count s in
        if n > 0 then
          match !best with Some (_, bn) when bn >= n -> () | _ -> best := Some (i, n)
      end)
    t.scheds;
  Option.map fst !best

let try_steal t ~thief =
  t.steal_attempts <- t.steal_attempts + 1;
  match victim t ~thief with
  | None -> false
  | Some v -> (
    match Scheduler.steal ~from:t.scheds.(v) ~into:t.scheds.(thief) with
    | None -> false
    | Some (ready_at, _th) ->
      t.steals <- t.steals + 1;
      (* causality: the entry cannot run before it became ready on the
         victim; then pay for hauling it across *)
      Cpu.sync_to t.cpu ~cpu:thief ~at:ready_at;
      let clk = Cpu.clock_of t.cpu thief in
      Clock.advance clk (Cost.steal t.costs);
      Clock.bump clk Clock.Steal;
      true)

let run ?(steal = true) ?(budget = max_int) t =
  let total = ref 0 in
  let sweeps = ref 0 in
  let progress = ref true in
  while !progress && !sweeps < budget do
    incr sweeps;
    progress := false;
    for k = 0 to Array.length t.scheds - 1 do
      if not (Cpu.halted t.cpu k) then begin
        let s = t.scheds.(k) in
        let has_work =
          Scheduler.ready_count s > 0 || (steal && try_steal t ~thief:k)
        in
        if has_work then begin
          let did = Cpu.run_on t.cpu k (fun () -> Scheduler.run s ~budget:1 ()) in
          if did > 0 then begin
            total := !total + did;
            t.dispatches <- t.dispatches + did;
            progress := true
          end
        end
      end
    done
  done;
  !total

let stats t = function
  | `Steals -> t.steals
  | `Steal_attempts -> t.steal_attempts
  | `Dispatches -> t.dispatches

(* Pm_cpu: the operations over a machine's logical CPUs.

   Every machine owns its CPUs ({!Machine.cpus}), at least one. Each CPU
   owns a virtual clock; all clocks share the machine's one
   observability sink, so spans, accounting and the journal stay a
   single stream (events carry the issuing CPU id via the ambient
   register in {!Pm_journal.Journal}). The host is single-threaded: the
   simulation interleaves CPUs explicitly through [run_on], and work
   executed inside charges the active CPU's clock because every charge
   site reads {!Machine.clock} at charge time.

   Time model. Per-CPU clocks advance independently while CPUs compute
   on private state; global virtual time is their maximum. Causality is
   restored at synchronization points: any cross-CPU interaction (an
   IPI, a work steal, shared ring traffic) reconciles the observer's
   clock forward to at least the issuing CPU's time ([sync_to], built on
   {!Clock.advance_to} — never backward). Because reconciliation only
   ever pulls clocks forward and the interleaving below is a fixed
   round-robin, results are deterministic. A machine with one CPU has
   no cross-CPU interactions, performs no reconciliation and never
   moves the active clock.

   An inter-processor interrupt is just a trap sourced from another CPU:
   the sender pays {!Cost.t.ipi} for the bus signalling on its own
   clock, the target reconciles to the send time, wakes if halted, and
   executes the trap through the ordinary event path on its own clock
   (paying its normal trap entry there). *)

type t = Machine.t

let count m = Array.length (Machine.cpus m)

let get m k =
  let cpus = Machine.cpus m in
  if k < 0 || k >= Array.length cpus then
    invalid_arg (Printf.sprintf "Cpu: no cpu %d (machine has %d)" k (Array.length cpus));
  cpus.(k)

let clock_of m k = (get m k).Machine.clock
let current = Machine.current_cpu
let now m k = Clock.now (clock_of m k)

(* Global virtual time: the machine is done when its slowest CPU is. *)
let makespan m =
  Array.fold_left (fun acc c -> max acc (Clock.now c.Machine.clock)) 0 (Machine.cpus m)

(* ------------------------------------------------------------------ *)
(* Affinity                                                            *)
(* ------------------------------------------------------------------ *)

let pin m ~domain ~cpu =
  ignore (get m cpu);
  Hashtbl.replace (Machine.pins m) domain cpu

let cpu_of m ~domain =
  Option.value (Hashtbl.find_opt (Machine.pins m) domain) ~default:0

let cross m ~a ~b = cpu_of m ~domain:a <> cpu_of m ~domain:b

(* ------------------------------------------------------------------ *)
(* Execution: interleaving CPUs on the single-threaded host            *)
(* ------------------------------------------------------------------ *)

let run_on m k f =
  let prev = current m in
  if k = prev then f ()
  else begin
    Machine.switch_cpu m k;
    Fun.protect ~finally:(fun () -> Machine.switch_cpu m prev) f
  end

(* Reconciliation: CPU [cpu] observes an event issued at global time
   [at]; its clock moves forward to at least [at]. The absorbed idle
   cycles are counted, never silently dropped. *)
let sync_to m ~cpu ~at =
  let c = get m cpu in
  let d = Clock.advance_to c.Machine.clock at in
  if d > 0 then begin
    c.synced <- c.synced + d;
    Clock.count_n c.clock "cpu_sync" 1
  end

(* ------------------------------------------------------------------ *)
(* Halt                                                                *)
(* ------------------------------------------------------------------ *)

let halt m k = (get m k).Machine.halted <- true
let halted m k = (get m k).Machine.halted

(* ------------------------------------------------------------------ *)
(* Inter-processor interrupts                                          *)
(* ------------------------------------------------------------------ *)

let ipi m ~cpu vec arg =
  let target = get m cpu in
  let cur = current m in
  if cpu = cur then
    (* self-IPI degenerates to an ordinary trap *)
    ignore (Machine.raise_trap m vec arg)
  else begin
    let sender = (Machine.cpus m).(cur) in
    Clock.advance sender.Machine.clock (Machine.costs m).Cost.ipi;
    Clock.count sender.clock "ipi";
    sender.ipis_sent <- sender.ipis_sent + 1;
    sync_to m ~cpu ~at:(Clock.now sender.clock);
    target.halted <- false;
    target.ipis_recv <- target.ipis_recv + 1;
    run_on m cpu (fun () -> ignore (Machine.raise_trap m vec arg))
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type cpu_stats = {
  cpu : int;
  cycles : int;
  halted_now : bool;
  ipis_sent : int;
  ipis_recv : int;
  synced : int;
}

let stats m k =
  let c = get m k in
  { cpu = k; cycles = Clock.now c.Machine.clock; halted_now = c.halted;
    ipis_sent = c.ipis_sent; ipis_recv = c.ipis_recv; synced = c.synced }

let all_stats m = List.init (count m) (stats m)

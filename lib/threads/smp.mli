(** Per-CPU scheduling over a machine's CPUs ({!Pm_machine.Cpu}).

    One {!Scheduler.t} per CPU, each bound to that CPU's clock. {!run}
    interleaves the CPUs with a deterministic round-robin sweep (one
    dispatch per CPU per pass); an idle CPU steals the oldest ready
    entry from its most-loaded sibling, reconciling its clock to the
    entry's ready-at time and paying {!Pm_machine.Cost.steal}. Halted
    CPUs neither dispatch nor steal until woken (e.g. by an IPI). Every
    kernel schedules through one of these, whatever its CPU count; on
    one CPU {!run} dispatches in exactly {!Scheduler.run}'s order. *)

type t

(** [create cpus ~boot] builds one scheduler per CPU of the machine:
    CPU 0 uses [boot] (the kernel's existing scheduler — threads already
    spawned stay valid); CPUs 1.. get fresh schedulers on their own
    clocks, with the machine's MMU applied. *)
val create : Pm_machine.Cpu.t -> boot:Scheduler.t -> t

(** The scheduler instance owned by CPU [k]. *)
val sched : t -> int -> Scheduler.t

(** [spawn_on t k ?name body] spawns on CPU [k]'s scheduler, charging
    creation to [k]'s clock. *)
val spawn_on : t -> int -> ?name:string -> (unit -> unit) -> Scheduler.thread

(** [try_steal t ~thief] makes one stealing attempt for CPU [thief]:
    picks the most-loaded sibling (ties to lowest id), moves its oldest
    ready entry over, reconciles the thief's clock and charges
    {!Pm_machine.Cost.steal}. Returns whether anything was stolen; an
    attempt on all-empty siblings is free. *)
val try_steal : t -> thief:int -> bool

(** [run ?steal ?budget t] sweeps the CPUs round-robin, one dispatch
    each per pass, until no CPU can make progress or [budget] sweeps
    have run (default: unbounded). [steal] (default [true]) enables work
    stealing for idle CPUs. Returns total dispatches. *)
val run : ?steal:bool -> ?budget:int -> t -> int
val stats : t -> [ `Steals | `Steal_attempts | `Dispatches ] -> int

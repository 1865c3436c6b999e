(** The operations over a machine's logical CPUs.

    Every {!Machine} owns its CPUs, at least one ({!Machine.create}
    [?cpus]). Each CPU owns a {!Clock} sharing the machine's
    observability sink. Per-CPU clocks advance independently while CPUs
    compute on private state; global virtual time is their maximum
    ({!makespan}), and any cross-CPU interaction — an IPI, a work steal,
    shared ring traffic — reconciles the observing CPU's clock forward
    to the issuing CPU's time, never backward. The host interleaves
    CPUs explicitly via {!run_on}; work run inside charges that CPU's
    clock because every charge site reads {!Machine.clock} at charge
    time.

    A 1-CPU machine has no cross-CPU interactions and never moves the
    active clock. *)

(** The machine itself: every operation here works on the CPU table the
    machine owns, so nothing needs a lookup to find it. *)
type t = Machine.t

val count : t -> int
val clock_of : t -> int -> Clock.t

(** The CPU currently executing (0 outside any [run_on]). *)
val current : t -> int

val now : t -> int -> int

(** Global virtual time: the maximum over all per-CPU clocks. The
    machine is done when its slowest CPU is. *)
val makespan : t -> int

(** {2 Affinity}

    Domains are pinned to CPUs; unpinned domains run on CPU 0. *)

val pin : t -> domain:int -> cpu:int -> unit
val cpu_of : t -> domain:int -> int

(** [cross t ~a ~b] holds when domains [a] and [b] sit on different
    CPUs (never on a 1-CPU machine). *)
val cross : t -> a:int -> b:int -> bool

(** {2 Execution} *)

(** [run_on t k f] runs [f] as CPU [k]: the machine's active clock and
    the CPU id its journal stamps are switched for the dynamic extent of
    [f] and restored after (exception-safe, nestable). *)
val run_on : t -> int -> (unit -> 'a) -> 'a

(** [sync_to t ~cpu ~at] reconciles CPU [cpu]'s clock forward to global
    time [at] (a no-op if already ahead). Absorbed idle cycles are
    accumulated in {!stats} and counted as ["cpu_sync"]. *)
val sync_to : t -> cpu:int -> at:int -> unit

(** {2 Halt}

    A halted CPU neither dispatches nor steals until an IPI wakes it. *)

val halt : t -> int -> unit
val halted : t -> int -> bool

(** {2 Inter-processor interrupts}

    An IPI is a trap sourced from another CPU: the sender pays
    {!Cost.t.ipi} on its own clock, the target reconciles to the send
    time, wakes if halted, and the trap runs through the ordinary
    {!Machine.raise_trap} path on the target's clock. *)

(** [ipi t ~cpu vec arg] sends trap [vec]/[arg] to CPU [cpu] from the
    current CPU. A self-IPI degenerates to a plain trap. *)
val ipi : t -> cpu:int -> int -> int -> unit

(** {2 Introspection} *)

type cpu_stats = {
  cpu : int;
  cycles : int;
  halted_now : bool;
  ipis_sent : int;
  ipis_recv : int;
  synced : int;  (** idle cycles absorbed by reconciliation *)
}

val stats : t -> int -> cpu_stats

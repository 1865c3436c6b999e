(** The observability sink: one cheap [enabled] flag in front of a
    {!Metrics} registry, plus the system journal every recording site
    writes into.

    Every virtual clock owns one of these; instrumented hot paths —
    method dispatch, event delivery, page-fault handling, cross-domain
    proxies, channels, the scheduler — test {!enabled} and skip
    everything (cycle charges, spans, samples) when it is off, so a
    quiescent sink costs nothing in simulated cycles. Spans are journal
    events ({!Pm_machine.Clock.span} records them, and their latency
    sample); the flight recorder is the journal's always-on view,
    recorded regardless of the flag with plain stores and no cycle
    charges. Per-domain accounting is a view over the metrics
    ({!account}), not a store of its own. *)

type t

val create : unit -> t

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val metrics : t -> Metrics.t

(** The system journal: the complete event-sourced history, spans and
    structural mutations included. *)
val journal : t -> Pm_journal.Journal.t

(** {2 Conveniences forwarding to the metrics} *)

val observe : t -> domain:int -> string -> int -> unit
val incr : t -> domain:int -> string -> unit
val set_gauge : t -> domain:int -> string -> int -> unit

(** Clears the metrics and bumps {!resets}. Leaves [enabled] and the
    journal untouched: the journal is system history, not a trace
    buffer. *)
val reset : t -> unit

(** How many times {!reset} has run. A reader that kept a baseline
    (the placer's epoch) compares the count it saw then: a baseline from
    before the latest reset counts as zero, so the reader's delta is the
    activity since the reset. *)
val resets : t -> int

(** {2 Per-domain accounting} *)

(** One protection domain's accounting row. [cycles] sums the
    instrumented span durations attributed to the domain; nested spans
    in the same domain may overlap, so treat it as an attribution
    measure, not a wall total. *)
type account = {
  cycles : int;  (** the sum of the five span sums below *)
  dispatches : int;  (** [invoke.dispatch] samples *)
  traps : int;  (** [events.trap] samples *)
  irqs : int;  (** [events.irq] samples *)
  faults : int;  (** [vmem.fault] samples *)
  crossings : int;  (** [proxy.call] samples *)
  crossing_cycles : int;  (** the [proxy.call] sum *)
  sched_runs : int;  (** the domain's [sched.switches] counter *)
}

(** [account t ~domain] derives the domain's row from the metrics the
    instrumentation spans feed. The pages a domain holds are not here:
    only the nucleus knows them, and the [/stats] exporter appends
    them. *)
val account : t -> domain:int -> account

(** The row as [(field, value)] pairs, in export order. *)
val account_fields : account -> (string * int) list

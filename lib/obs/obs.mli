(** The observability sink: one cheap [enabled] flag in front of a
    {!Metrics} registry and a per-domain {!Acct} table, plus the system
    journal every recording site writes into.

    Every virtual clock owns one of these; instrumented hot paths —
    method dispatch, event delivery, page-fault handling, cross-domain
    proxies, channels, the scheduler — test {!enabled} and skip
    everything (cycle charges, spans, accounting) when it is off, so a
    quiescent sink costs nothing in simulated cycles. Spans are journal
    events ({!Pm_machine.Clock.span} records them); the flight recorder
    is the journal's always-on view, recorded regardless of the flag
    with plain stores and no cycle charges. *)

type t

val create : unit -> t

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val metrics : t -> Metrics.t
val acct : t -> Acct.t

(** The system journal: the complete event-sourced history, spans and
    structural mutations included. *)
val journal : t -> Pm_journal.Journal.t

(** {2 Conveniences forwarding to the metrics} *)

val observe : t -> domain:int -> string -> int -> unit
val incr : t -> domain:int -> string -> unit
val add : t -> domain:int -> string -> int -> unit
val set_gauge : t -> domain:int -> string -> int -> unit

(** Clears the metrics and zeroes every accounting slot in place (so
    [Domain.t.acct] still aliases its slot). Leaves [enabled] and the
    journal untouched: the journal is system history, not a trace
    buffer. *)
val reset : t -> unit

(** Virtual cycle clock with named event counters.

    Every simulated operation charges cycles here; experiments read the
    difference around a workload. Counters record how often each kind of
    event (trap, context switch, fault, ...) occurred, which the benches
    report alongside cycles. *)

type t

(** [create ?obs ()] makes a fresh clock. Passing [obs] shares an
    existing observability sink — how per-CPU clocks all feed the one
    journal/metrics instance the machine owns. *)
val create : ?obs:Pm_obs.Obs.t -> unit -> t

(** [advance t n] charges [n >= 0] cycles. *)
val advance : t -> int -> unit

(** [advance_to t n] pulls the clock forward to global virtual time [n]
    if it is behind (never backward) and returns the idle cycles
    absorbed. The reconciliation primitive for cross-CPU causality. *)
val advance_to : t -> int -> int

(** [now t] is the cycles elapsed since creation or the last [reset]. *)
val now : t -> int

(** [count t name] increments the event counter [name]. *)
val count : t -> string -> unit

(** [count_n t name n] bumps a counter by [n]. *)
val count_n : t -> string -> int -> unit

(** [counter t name] reads a counter (0 if never incremented). *)
val counter : t -> string -> int

(** [counters t] lists all counters, sorted by name. *)
val counters : t -> (string * int) list

(** [reset t] zeroes the clock and all counters. *)
val reset : t -> unit

(** [measure t f] runs [f ()] and returns its result together with the
    cycles it charged. *)
val measure : t -> (unit -> 'a) -> 'a * int

(** [obs t] is the observability sink attached to this clock. Tracing is
    disabled by default; instrumented paths charge no cycles until
    [Pm_obs.Obs.enable] is called. *)
val obs : t -> Pm_obs.Obs.t

(** [span t ~costs ~domain ~layer ~obj ~iface ~meth ?metric f] is the
    one observability span. With {!obs} disabled it is [f ()] and
    nothing else. Enabled, it journals a [Span_enter] whose detail is
    ["layer iface.meth obj"] (so {!Pm_query.Query} attributes it to
    [layer]), runs [f], charges one [Cost.span_store] to book the span,
    journals the matching [Span_exit] and records the span's inclusive
    cycles as one sample of the histogram [metric] under [domain] — the
    sample the per-domain accounting ({!Pm_obs.Obs.account}) is derived
    from. If [f] raises, the exit is still journalled (uncharged, no
    sample) and the exception re-raised. Enter and exit carry the same
    request id even when [f] changes the ambient one. *)
val span :
  t ->
  costs:Cost.t ->
  domain:int ->
  layer:string ->
  obj:string ->
  iface:string ->
  meth:string ->
  ?metric:string ->
  (unit -> 'a) ->
  'a

(** {2 Snapshots}

    [snapshot]/[diff]/[since] replace the hand-rolled
    before/after counter-list subtraction the benches used to do. *)

type snapshot = { at : int; counts : (string * int) list }

(** [snapshot t] captures the cycle count and every counter. *)
val snapshot : t -> snapshot

(** [diff ~before ~after] is the elapsed cycles and per-counter deltas
    (zero deltas omitted). *)
val diff : before:snapshot -> after:snapshot -> snapshot

(** [since t s] is [diff ~before:s ~after:(snapshot t)]. *)
val since : t -> snapshot -> snapshot

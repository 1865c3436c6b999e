(** Virtual cycle clock with event counters.

    Every simulated operation charges cycles here; experiments read the
    difference around a workload. Counters record how often each kind of
    event (trap, context switch, fault, ...) occurred, which the benches
    report alongside cycles. *)

type t

(** The events the system counts, one constructor per counter, in the
    order of their {!name}s. Each owns one slot of a clock's counter
    array, so {!bump} neither hashes nor allocates. *)
type event =
  | Blk_complete
  | Blk_error
  | Blk_issue
  | Blk_wait
  | Bytecode_rejection
  | Bytecode_verification
  | Cache_flush
  | Cert_rejection
  | Cert_validation
  | Chan_bad_length
  | Chan_cacheline
  | Chan_doorbell
  | Chan_drop
  | Chan_empty_block
  | Chan_full_block
  | Chan_recv
  | Chan_send
  | Component_load
  | Component_mem_access
  | Context_switch
  | Cpu_sync
  | Cross_domain_call
  | Delegation
  | Inline_specialization
  | Inlined_invocation
  | Interrupt
  | Ipi
  | Method_invocation
  | Mpsc_cas_retry
  | Mpsc_doorbell
  | Mpsc_reserve
  | Ns_bind
  | Online_certification
  | Page_fault
  | Pager_fault
  | Popup_promotion
  | Proto_thread
  | Proxy_fault
  | Sfi_check
  | Sfi_crossing
  | Spurious_interrupt
  | Steal
  | Thread_crash
  | Thread_create
  | Thread_switch
  | Tlb_fill
  | Trap
  | Vm_fault
  | Vm_wild_access

(** [name ev] is the counter's reported name: the constructor's, in
    lower case (["tlb_fill"] for [Tlb_fill]). *)
val name : event -> string

(** Every event, in slot order. *)
val events : event list

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

(** [bump t ev] adds one to [ev]'s counter. *)
val bump : t -> event -> unit

(** [bump_n t ev n] adds [n] to [ev]'s counter. A counter bumped only
    by 0 is still listed by {!counters}. *)
val bump_n : t -> event -> int -> unit

(** [read t ev] is [ev]'s counter (0 if never bumped). *)
val read : t -> event -> int

(** {2 The string shim}

    For counters named at run time: the ad hoc names of tests and the
    benchmark's probe. A {!name} of an {!event} lands in that event's
    slot, so [count t "tlb_fill"] and [bump t Tlb_fill] bump one counter;
    any other name is kept in a table of the clock's own. *)

(** [count t name] increments the counter [name]. *)
val count : t -> string -> unit

(** [count_n t name n] bumps a counter by [n]. *)
val count_n : t -> string -> int -> unit

(** [counter t name] reads a counter (0 if never incremented). *)
val counter : t -> string -> int

(** [counters t] lists every counter bumped since creation or the last
    {!reset}, events and shim names alike, sorted by name. *)
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

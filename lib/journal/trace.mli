(** Causal trace context.

    A compact request id minted at ingress and propagated ambiently
    (plus inside the traced wire formats) across every layer a request
    crosses. The simulated machine is single-threaded, so the current
    request is a plain register, not thread-local state.

    Zero-cost-when-off: everything here is plain OCaml stores, and
    with tracing disabled {!current} always returns 0 so call sites
    skip their extra work. Flip tracing only between runs — wire
    formats carry the id conditionally and must stay consistent within
    a run. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Mint a fresh request id (1, 2, 3, ...). 0 means "no request". *)
val mint : unit -> int

(** The ambient request id, or 0 when tracing is off / no request. *)
val current : unit -> int

val set_current : int -> unit
val clear : unit -> unit

(** {2 The rid field}

    With tracing on, a traced wire message carries a request id in an
    uncharged 4-byte big-endian field right after its fixed header, and
    parsing the message makes that id the ambient one. With tracing off
    the field is absent. *)

(** [rid_len ()] is the field's length: 4 with tracing on, else 0. *)
val rid_len : unit -> int

(** [write_rid b off] stores the ambient request id at [off]; a no-op
    with tracing off. *)
val write_rid : bytes -> int -> unit

(** [read_rid b off] makes the id stored at [off] the ambient one; a
    no-op with tracing off. A decoder calls it only once it has accepted
    the message, so a rejected message leaves the ambient id alone. *)
val read_rid : bytes -> int -> unit

(** Reset the mint counter and ambient scope — the replay harness
    calls this at capture start so rids are deterministic per run. *)
val reset : unit -> unit

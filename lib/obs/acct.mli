(** Per-domain resource accounting.

    Every protection domain gets one mutable [slot] accumulating
    cycles, dispatches, traps, interrupts, page faults, proxy crossings
    and pages held. The slots live in a table keyed by domain id and
    owned by the clock's {!Obs.t}; the nucleus shares the same records
    through [Domain.t.acct], so both sides see one set of numbers.

    Updates happen only inside the instrumentation points' existing
    [Obs.enabled] branches and never advance the virtual clock, so the
    zero-cost-when-off guarantee covers accounting too. [cycles] sums
    the instrumented span durations attributed to the domain; nested
    spans in the same domain may overlap, so treat it as an attribution
    measure, not a wall total. *)

type slot = {
  mutable cycles : int;
  mutable dispatches : int;
  mutable traps : int;
  mutable irqs : int;
  mutable faults : int;
  mutable crossings : int;
  mutable crossing_cycles : int;
  mutable sched_runs : int;
  mutable pages : int;  (** gauge, refreshed by the stats service *)
}

type t

val create : unit -> t

(** A fresh all-zero slot not attached to any table. *)
val fresh : unit -> slot

(** [slot t domain] finds or creates the domain's slot. *)
val slot : t -> int -> slot

val find : t -> int -> slot option

(** Domain ids with slots, ascending. *)
val domains : t -> int list

(** Zeroes every slot in place; slots handed out earlier stay live. *)
val reset : t -> unit

val copy : slot -> slot

(** [sub ~after ~before] — counter fields subtract, [pages] keeps the
    [after] value (it is a gauge). *)
val sub : after:slot -> before:slot -> slot

(** {2 Charge helpers} — [n] is the measured span duration in cycles. *)

val dispatch : t -> domain:int -> int -> unit
val trap : t -> domain:int -> int -> unit
val irq : t -> domain:int -> int -> unit
val fault : t -> domain:int -> int -> unit
val crossing : t -> domain:int -> int -> unit
val sched : t -> domain:int -> unit

(** {2 Export} *)

val fields : slot -> (string * int) list
val field : slot -> string -> int option
val line : slot -> string
val to_json : slot -> string

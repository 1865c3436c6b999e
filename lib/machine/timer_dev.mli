(** Programmable interval timer.

    Register map:
    - 0 [PERIOD]: reload value in ticks
    - 1 [CTRL]: bit0 enable, bit1 periodic (auto-reload)
    - 2 [COUNT] (read-only): ticks until the next interrupt

    Fires its IRQ line when the countdown reaches zero; in periodic mode it
    reloads, otherwise it disables itself. Drives preemption-style clock
    events in the thread examples. *)

type t

val create : Machine.t -> irq_line:int -> t
val io_base : t -> int

(** [fires t] counts interrupts raised since creation. *)
val fires : t -> int

(** Invocation context threaded through every method call.

    Carries the machine clock and cost table so that any code on the call
    path — dispatcher, proxy, interposer, component — charges cycles to
    the same virtual clock, plus the protection domain the call originates
    from, which cross-domain proxies check and switch. *)

type t = {
  clock : Pm_machine.Clock.t;
  costs : Pm_machine.Cost.t;
  caller_domain : int;  (** protection domain the call is issued from *)
  origin_domain : int;
      (** domain on whose behalf the whole call chain runs; unchanged when
          a proxy re-issues the call inside the target's domain, so kernel
          services can authorize and account against the real client *)
}

val make : clock:Pm_machine.Clock.t -> costs:Pm_machine.Cost.t -> caller_domain:int -> t

(** [in_domain t d] is [t] reissued from domain [d]; the origin domain is
    preserved. *)
val in_domain : t -> int -> t

(** [charge t n] advances the clock by [n] cycles. *)
val charge : t -> int -> unit

(** [work t n] charges [n] units of straight-line component work. *)
val work : t -> int -> unit

(** [access t n] records [n] component memory accesses: charges the bus
    cost and bumps the clock's [Component_mem_access] counter. The SFI
    sandbox baseline taxes exactly these accesses, so any per-byte work a
    component does must go through here. A device's DMA is not a
    component's access: a driver moves its buffers with
    {!Pm_machine.Machine.dma} by their physical addresses, which charges
    no byte and translates nothing, and whoever then reads or writes
    those bytes charges them here. *)
val access : t -> int -> unit

(** [accesses t] reads the cumulative component access count. *)
val accesses : t -> int

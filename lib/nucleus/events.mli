(** Processor event management.

    "All processor events (traps and interrupts) are handled by this
    service. Components can register call-backs which are called every
    time a specified processor event occurs. A call-back consists of a
    context, and the address of a call-back function."

    The service owns every machine vector; registered call-backs for an
    event run in registration order. Delivering a call-back into a domain
    other than the currently running one switches MMU contexts around it.
    A call-back registered for one argument is skipped, before any switch,
    when the event carries another.

    [register_popup] is the standard redirection to the thread system:
    the call-back body runs as a pop-up (proto-)thread. *)

type t

type event = Trap of int | Irq of int

type cb_id

val create : Pm_machine.Machine.t -> t

(** [register ?arg t event ~domain f] installs a call-back; [f] receives
    the trap argument (0 for interrupts). With [arg], the call-back runs
    only for events raised with that argument: a doorbell channel passes
    its id, and dispatch matches it before switching into [domain], so a
    doorbell for another channel on the shared vector costs this one
    neither a context switch nor a delivery. *)
val register : ?arg:int -> t -> event -> domain:Domain.t -> (int -> unit) -> cb_id

(** [register_popup t event ~domain ~sched ?priority f] installs a
    call-back that runs [f] as a pop-up thread on [sched]. *)
val register_popup :
  t ->
  event ->
  domain:Domain.t ->
  sched:Pm_threads.Scheduler.t ->
  ?priority:int ->
  (int -> unit) ->
  cb_id

val unregister : t -> cb_id -> unit

(** [remove_domain t dom] drops every call-back registered for [dom]. *)
val remove_domain : t -> Domain.t -> unit

(** [callbacks t event] is the number of live call-backs on an event. *)
val callbacks : t -> event -> int

(** [registrations t] lists every live call-back with its event and
    registering domain, in registration order — introspection for the
    composition linter's dead-handler check. *)
val registrations : t -> (event * Domain.t * cb_id) list

(** [deliveries t] counts call-back invocations since creation. *)
val deliveries : t -> int

(** Cooperative thread package with pop-up threads.

    Per the paper this is a component *outside* the nucleus: the event
    service merely redirects processor events here, where they become
    pop-up threads. "For efficiency reasons, we delay the actual creation
    of the pop-up thread by creating a proto-thread. Only when the
    proto-thread is about to block or be rescheduled do we turn it into a
    real thread."

    Threads are OCaml effect-handler fibers; {!popup} runs its body
    immediately in the event-handler context (a proto-thread) and promotes
    it to a scheduled thread — paying the promotion cost — only if it
    blocks or yields.

    Blocking and yielding must be performed from inside a thread or
    proto-thread; doing so elsewhere raises [Effect.Unhandled]. *)

type t

type state = Ready | Running | Blocked | Finished

type thread = {
  tid : int;
  name : string;
  priority : int;  (** 0 (highest) .. {!priorities}-1 *)
  mutable state : state;
  is_popup : bool;
  domain : int option;  (** protection domain the thread runs in *)
  mutable home : t option;
      (** scheduler the thread lands on when it next becomes ready;
          [None] means its creator. Set by {!steal} so a stolen thread's
          later yields and wakeups stay on the thief's CPU. *)
}

(** A parked thread plus the closure that makes it runnable again; what a
    blocking primitive stores in its wait queue. *)
type resumer = { thread : thread; resume : unit -> unit }

val priorities : int

(** [create clock costs] is an empty scheduler. It dispatches by strict
    priority level, round-robin within one. An application that wants
    another dispatch rule loads another thread package. *)
val create : Pm_machine.Clock.t -> Pm_machine.Cost.t -> t

(** [set_mmu t mmu] teaches the scheduler to switch MMU contexts when
    dispatching threads that declare a domain. *)
val set_mmu : t -> Pm_machine.Mmu.t -> unit

(** [spawn t ?priority ?name ?domain body] creates a full thread (charging
    the full creation cost) and marks it ready. When [domain] is given and
    an MMU is set, dispatches switch into that context. *)
val spawn : t -> ?priority:int -> ?name:string -> ?domain:int -> (unit -> unit) -> thread

(** [popup t ?priority ?name ?domain body] runs [body] as a proto-thread,
    in the caller's context. Returns [true] if it ran to completion on the
    fast path, [false] if it was promoted to a real thread (which then
    completes under the scheduler). *)
val popup : t -> ?priority:int -> ?name:string -> ?domain:int -> (unit -> unit) -> bool

(** [run t ?budget ()] dispatches ready threads until none are runnable,
    or until [budget] dispatches have been made. Returns the number of
    dispatches performed. Threads left blocked stay parked; an external
    event (e.g. an interrupt resuming a waiter) can make them ready again,
    after which [run] may be called again. *)
val run : t -> ?budget:int -> unit -> int

(** {1 Effects — callable only inside a thread/proto-thread} *)

(** [yield ()] reschedules the caller behind its priority peers. *)
val yield : unit -> unit

(** [suspend register] parks the caller, handing its {!resumer} to
    [register] (which typically stores it in a wait queue). *)
val suspend : (resumer -> unit) -> unit

(** [self ()] is the calling thread's descriptor. *)
val self : unit -> thread

(** {1 Introspection} *)

val live : t -> int  (** spawned or promoted, not yet finished *)

val ready_count : t -> int

(** [steal ~from ~into] moves the oldest ready entry of [from] onto
    [into]'s ready queue, re-homing the thread there; [None] if [from]
    has nothing ready. Returns the entry's ready-at cycles (the victim's
    virtual time when it was enqueued) so the SMP layer can reconcile
    the thief's clock, and the stolen thread. Pricing is the SMP
    layer's job. *)
val steal : from:t -> into:t -> (int * thread) option

(** Counters for the experiments. *)
val stats : t -> [ `Spawned | `Popups | `Popup_fast | `Promotions | `Switches | `Crashes ] -> int

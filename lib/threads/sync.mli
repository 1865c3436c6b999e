(** Synchronization primitives for the thread package.

    All blocking operations must run inside a thread or proto-thread (a
    blocking proto-thread is promoted, per the pop-up thread design).
    Wake-ups only mark threads ready; they run at the next
    {!Scheduler.run} dispatch. *)

(** {1 Wait queues} — the primitive the rest is built on. *)

module Waitq : sig
  type t

  val create : unit -> t

  (** [wait q] parks the caller on [q]. *)
  val wait : t -> unit

  (** [signal q] readies the oldest waiter; [false] if [q] was empty. *)
  val signal : t -> bool

  (** [broadcast q] readies every waiter, returning how many. *)
  val broadcast : t -> int

  val length : t -> int

  (** [waiters q] lists the parked threads, oldest first — introspection
      for the composition linter's wait-for graph; does not dequeue. *)
  val waiters : t -> Scheduler.thread list
end

(** {1 Counting semaphores} *)

module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val try_acquire : t -> bool
  val release : t -> unit
  val value : t -> int
end

(** {1 Write-once cells} — handy for RPC completion. *)

module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  (** [fill iv v] wakes all readers. Raises [Invalid_argument] if already
      filled. *)
  val fill : 'a t -> 'a -> unit

  (** [read iv] blocks until filled. *)
  val read : 'a t -> 'a

  val peek : 'a t -> 'a option
end

(** Object handle registry.

    Maps object handles (small integers) to live payloads. One registry
    per kernel; the directory service stores handles, and binding resolves
    them here. The payload type is a parameter so this module does not
    depend on {!Instance}; in practice it is always [Instance.t]. *)

type 'a t

val create : unit -> 'a t

(** [fresh t] allocates the next handle (handles start at 1; 0 is never a
    valid handle). *)
val fresh : 'a t -> int

(** [put t handle v] associates a handle with a payload. *)
val put : 'a t -> int -> 'a -> unit

(** [get t handle] retrieves the payload. *)
val get : 'a t -> int -> 'a option

(** [remove t handle] forgets a handle. *)
val remove : 'a t -> int -> unit

val size : 'a t -> int

(** [iter t f] applies [f] to every live payload, in no set order. *)
val iter : 'a t -> ('a -> unit) -> unit

(** Two Paramecium nodes with their network devices cross-wired.

    The original system served a parallel-programming group running on
    multiple workstations (the Amoeba lineage); this module provides the
    smallest distributed setting: two independently booted kernels whose
    NICs share a wire. Frames transmitted by one node are injected into
    the other on every {!step}. Both nodes trust the same certification
    authority, so certified components can be loaded on either side.

    Node A has network address {!addr_a}, node B {!addr_b}; both get an
    in-kernel certified networking bundle at boot. *)

type t

val addr_a : int
val addr_b : int

(** [create ?seed ()] boots both nodes (sharing one authority and
    delegate chain) and sets up certified in-kernel networking on each. *)
val create : ?seed:int -> unit -> t

val node_a : t -> System.t
val node_b : t -> System.t

val net_a : t -> System.networking
val net_b : t -> System.networking

(** [step t ?ticks ()] advances both machines and ferries frames across
    the wire in both directions, [ticks] times. *)
val step : t -> ?ticks:int -> unit -> unit

(** [frames_delivered t] counts frames ferried since creation (both
    directions). *)
val frames_delivered : t -> int

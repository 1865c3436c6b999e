(** Packet wire formats for the protocol-stack component.

    Three layers, each with explicit header build/parse and a 16-bit ones'
    complement checksum. Every byte touched is recorded through
    {!Pm_obj.Call_ctx.access}, so per-packet protocol work scales with
    packet size and is visible to the SFI sandbox baseline.

    All integer fields are big-endian.

    - Frame: [dst(2) src(2) len(2)] payload [fcs(2)] — fcs covers header
      and payload.
    - Net: [src(2) dst(2) ttl(1) proto(1) total_len(2) cksum(2)] payload —
      cksum covers the header.
    - Transport: [sport(2) dport(2) len(2) cksum(2)] payload — cksum
      covers the payload. *)

val sum16 : Pm_obj.Call_ctx.t -> bytes -> off:int -> len:int -> int

(** Unsigned big-endian 32-bit fields, shared by every wire format in
    the system ([set32] keeps the low 32 bits). 16-bit fields use
    [Bytes.get_uint16_be]/[Bytes.set_uint16_be]. No cycles are
    charged. *)
val get32 : bytes -> int -> int

val set32 : bytes -> int -> int -> unit

(** [check16 label v] raises [Invalid_argument] naming [label] unless
    [v] fits an unsigned 16-bit field. *)
val check16 : string -> int -> unit

module Frame : sig
  type t = { dst : int; src : int; payload : bytes }

  val header_len : int
  val trailer_len : int

  (** [build ctx ~dst ~src payload] raises [Invalid_argument] if an
      address is out of 16-bit range. *)
  val build : Pm_obj.Call_ctx.t -> dst:int -> src:int -> bytes -> bytes

  val parse : Pm_obj.Call_ctx.t -> bytes -> (t, string) result
end

module Net : sig
  type t = { src : int; dst : int; ttl : int; proto : int; payload : bytes }

  val header_len : int

  val build :
    Pm_obj.Call_ctx.t -> src:int -> dst:int -> ttl:int -> proto:int -> bytes -> bytes

  val parse : Pm_obj.Call_ctx.t -> bytes -> (t, string) result

  (** [decrement_ttl ctx raw] rewrites the TTL and checksum in place for
      forwarding; [Error] when the TTL hits zero. *)
  val decrement_ttl : Pm_obj.Call_ctx.t -> bytes -> (unit, string) result
end

module Transport : sig
  type t = { sport : int; dport : int; payload : bytes }

  val header_len : int

  val build : Pm_obj.Call_ctx.t -> sport:int -> dport:int -> bytes -> bytes
  val parse : Pm_obj.Call_ctx.t -> bytes -> (t, string) result
end

(** Total header+trailer overhead of the full stack, in bytes. *)
val stack_overhead : int

(** Packet wire formats for the protocol-stack component.

    Three layers, each with explicit header write/parse; the net and
    transport layers carry a 16-bit ones' complement checksum
    ({!Pm_machine.Cksum.fold16}). Every byte touched is recorded through
    {!Pm_obj.Call_ctx.access}, so per-packet protocol work scales with
    packet size and is visible to the SFI sandbox baseline.

    All integer fields are big-endian.

    - Frame: [dst(2) src(2) len(2)] payload [fcs(2)] — the fcs covers
      header and payload. It is the NIC's: the device writes it as the
      frame leaves and drops a frame whose fcs does not match before it
      reaches memory ({!Pm_machine.Nic}), so the framer makes no pass
      over the packet.
    - Net: [src(2) dst(2) ttl(1) proto(1) total_len(2) cksum(2)] payload —
      cksum covers the header.
    - Transport: [sport(2) dport(2) len(2) cksum(2)] payload — cksum
      covers the payload.

    {b One copy.} A packet lives in one buffer from the application's
    payload to the driver and back. On send, {!packet} allocates it with
    room for every header in front of the payload and for the frame's
    trailer behind it, and copies the payload in; each layer's [write]
    then puts its header into that room, in place. On receive, each
    layer's [parse] checks its header and checksum where they lie and
    returns the offset and length of the packet it carries inside the
    same buffer. Nothing here copies a payload out: the one receive copy
    is the consumer's, into what the application reads. The charges
    follow the bytes touched: a layer's header bytes, the net and
    transport checksum passes, and the one payload copy in {!packet}. *)

(** Unsigned big-endian 32-bit fields, shared by every wire format in
    the system ([set32] keeps the low 32 bits). 16-bit fields use
    [Bytes.get_uint16_be]/[Bytes.set_uint16_be]. No cycles are
    charged. *)
val get32 : bytes -> int -> int

val set32 : bytes -> int -> int -> unit

(** [check16 label v] raises [Invalid_argument] naming [label] unless
    [v] fits an unsigned 16-bit field. *)
val check16 : string -> int -> unit

(** [in_bounds b ~off ~len] holds when [len] bytes at [off] lie inside
    [b]. *)
val in_bounds : bytes -> off:int -> len:int -> bool

(** [packet ctx ~headroom ~tailroom src ~off ~len] is a fresh buffer of
    [headroom] zero bytes, the [len]-byte payload at [off] of [src], and
    [tailroom] zero bytes. Charges one access per payload byte: the one
    payload copy of a send. Raises [Invalid_argument] if a room is
    negative or the range is not inside [src]. *)
val packet :
  Pm_obj.Call_ctx.t -> headroom:int -> tailroom:int -> bytes -> off:int -> len:int -> bytes

(** Each [write] raises [Invalid_argument] if a field is out of range or
    the buffer has no room for the header (and trailer) around the
    [len]-byte packet it wraps. Each [parse ctx b ~off ~len] reads only
    the [len] bytes at [off]; its [Error] names the layer and the
    fault, and its result's [off]/[len] locate the carried packet inside
    [b]. *)

module Frame : sig
  type t = { dst : int; src : int; off : int; len : int }

  val header_len : int
  val trailer_len : int

  (** [write ctx b ~off ~dst ~src ~len] frames the [len]-byte packet at
      [off + header_len]: the header goes at [off], and the
      [trailer_len] bytes after the packet are left for the fcs, which
      the NIC writes as the frame leaves. Charges the header. *)
  val write :
    Pm_obj.Call_ctx.t -> bytes -> off:int -> dst:int -> src:int -> len:int -> unit

  (** Checks the header's length word against [len] and charges the
      header. The fcs is not read: the NIC checked it on arrival. *)
  val parse : Pm_obj.Call_ctx.t -> bytes -> off:int -> len:int -> (t, string) result
end

module Net : sig
  type t = { src : int; dst : int; ttl : int; proto : int; off : int; len : int }

  val header_len : int

  (** [write ctx b ~off ~src ~dst ~ttl ~proto ~len] writes the header at
      [off] of the [len]-byte packet that follows it. Charges the header
      and the checksum pass over it. *)
  val write :
    Pm_obj.Call_ctx.t ->
    bytes ->
    off:int ->
    src:int ->
    dst:int ->
    ttl:int ->
    proto:int ->
    len:int ->
    unit

  (** Charges the header and the checksum pass over it. *)
  val parse : Pm_obj.Call_ctx.t -> bytes -> off:int -> len:int -> (t, string) result

  (** [decrement_ttl ctx b ~off] rewrites the TTL and checksum of the
      header at [off] in place for forwarding; [Error] when the TTL hits
      zero. *)
  val decrement_ttl : Pm_obj.Call_ctx.t -> bytes -> off:int -> (unit, string) result
end

module Transport : sig
  type t = { sport : int; dport : int; off : int; len : int }

  val header_len : int

  (** [write ctx b ~off ~sport ~dport ~len] writes the header at [off]
      of the [len]-byte payload that follows it. Charges the header and
      the checksum pass over the payload. *)
  val write :
    Pm_obj.Call_ctx.t -> bytes -> off:int -> sport:int -> dport:int -> len:int -> unit

  (** Charges the header and the checksum pass over the payload. *)
  val parse : Pm_obj.Call_ctx.t -> bytes -> off:int -> len:int -> (t, string) result
end

(** Bytes in front of a transport payload in a whole frame (the three
    headers), and behind it (the frame's trailer). *)
val headroom : int

val tailroom : int

(** Total header+trailer overhead of the full stack, in bytes. *)
val stack_overhead : int

(** [frame ctx ~src ~dst ~ttl ~proto ~sport ~dport payload] is a whole
    frame built as the stack's three layers build one: {!packet}, then
    each layer's [write], inside out, then sealed ({!Pm_machine.Nic.seal})
    as the sending device would seal it, ready to inject on the wire.
    [src] and [dst] address both the frame and the network header. *)
val frame :
  Pm_obj.Call_ctx.t ->
  src:int ->
  dst:int ->
  ttl:int ->
  proto:int ->
  sport:int ->
  dport:int ->
  bytes ->
  bytes

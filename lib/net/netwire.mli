(** Ring-message codecs for the channel-backed network data path.

    Where {!Pm_components.Wire} defines the on-the-wire packet formats
    (checksummed, length-framed — what crosses the simulated link),
    these are the {e ring} formats: what {!Netstack_chan} lays into a
    shared-memory slot on either side of the protocol stack. The rings
    carry them with [~account:false]; every byte is charged here,
    through the caller's {!Pm_obj.Call_ctx}, exactly once per side.

    No checksums: a ring is reliable shared memory, so a delivery
    message is just a 4-byte header and a transmit request a 6-byte
    header, both followed by the raw payload. *)

module Delivery : sig
  (** What the stack's per-port sink enqueues on a port's receive ring:
      [[src:2][sport:2][payload]]. *)
  type t = { src : int; sport : int; payload : bytes }

  val header_len : int

  (** [build ctx ~src ~sport b ~off ~len] copies the [len]-byte payload
      at [off] of [b] (where the stack's parsers left it in the received
      frame) into a fresh message: the receive's one payload copy,
      charged with the header. Raises [Invalid_argument] if the range is
      not inside [b], as [Bytes.blit] does. *)
  val build :
    Pm_obj.Call_ctx.t -> src:int -> sport:int -> bytes -> off:int -> len:int -> bytes

  val parse : Pm_obj.Call_ctx.t -> bytes -> (t, string) result
end

module Txreq : sig
  (** What an application enqueues on the shared transmit group:
      [[dst:2][sport:2][dport:2][payload]]; the stack-side drain decodes
      it and runs the ordinary encode path. *)
  type t = {
    dst : int;
    sport : int;
    dport : int;
    off : int;  (** where the payload lies in the parsed message *)
    len : int;
  }

  val header_len : int

  (** [build ctx ~dst ~sport ~dport payload] copies the payload into a
      fresh message: the sender's side of the ring, charged with the
      header. *)
  val build :
    Pm_obj.Call_ctx.t -> dst:int -> sport:int -> dport:int -> bytes -> bytes

  (** [parse ctx msg] reads the header and leaves the payload where it
      lies: it charges the 6 header bytes, and the result's [off]/[len]
      locate the payload in [msg]. The stack's transport copies it from
      there into the frame, the send's one charged copy. *)
  val parse : Pm_obj.Call_ctx.t -> bytes -> (t, string) result
end

(** The 16-bit ones' complement sum: the NIC's frame check sequence and
    the protocol stack's net and transport checksums all fold with it.
    Pure arithmetic; it charges nothing, so whoever makes a pass with it
    on the CPU charges the bytes it reads. *)

(** [fold16 b ~off ~len] is the ones' complement of the ones' complement
    sum of the big-endian 16-bit words of the [len] bytes at [off] (an
    odd last byte is the high half of a word). The range must lie inside
    [b]. *)
val fold16 : bytes -> off:int -> len:int -> int

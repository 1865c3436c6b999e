(** Device model interface.

    A device is a bank of 32-bit registers plus a [tick] function that
    advances its internal model (delivering DMA, firing timers, raising
    interrupts through the closure it was created with). Concrete models:
    {!Nic}, {!Timer_dev}, {!Console}, {!Blkdev}. *)

type t = {
  name : string;
  reg_count : int;  (** number of registers; io space is 4 bytes per reg *)
  reg_read : int -> int;  (** [reg_read i] reads register [i] *)
  reg_write : int -> int -> unit;
  tick : unit -> unit;  (** advance the device model one machine tick *)
}

(** [make ~name ~reg_count ~reg_read ~reg_write ~tick] builds a device. *)
val make :
  name:string ->
  reg_count:int ->
  reg_read:(int -> int) ->
  reg_write:(int -> int -> unit) ->
  tick:(unit -> unit) ->
  t

(** Simulated DMA network interface.

    The NIC is the "shared network device" of the paper's motivating
    example: its driver maps the register window through the I/O-space
    service, gives the device receive buffers (physical frames), and turns
    its interrupts into pop-up threads. Packet data is DMA'd straight into
    physical memory, so the protocol stack's per-byte work happens on the
    memory bus — which is what the SFI baseline taxes.

    Register map (one 32-bit register per index):
    - 0 [CTRL]: bit0 rx enable, bit1 tx enable, bit2 irq enable,
      bit3 loopback (transmitted frames are re-injected)
    - 1 [STATUS]: bit0 rx pending, bit1 tx done; write-1-to-clear.
      Clearing bit0 pops the current rx descriptor and exposes the next.
    - 2 [RX_FREE]: write a physical address to append a receive buffer
      (each buffer must hold [mtu] bytes); read = free-buffer count
    - 3 [RX_ADDR] (read-only): physical address of the filled buffer
    - 4 [RX_LEN] (read-only): its length
    - 5 [TX_ADDR], 6 [TX_LEN]: transmit staging
    - 7 [TX_GO]: write 1 to enqueue the staged transmit into the tx
      descriptor ring (up to [tx_slots] in flight; a full ring counts
      an overrun and drops the descriptor — check TX_FREE first)
    - 8 [RX_DROPPED] (read-only): packets dropped for want of buffers
    - 9 [TX_FREE] (read-only): free tx descriptor slots *)

type t

val mtu : int

(** Transmit descriptor-ring capacity. *)
val tx_slots : int

(** [create machine ~irq_line] builds the NIC and attaches it to the
    machine. *)
val create : Machine.t -> irq_line:int -> t

val io_base : t -> int

(** {1 The wire} — test/workload side of the device. *)

(** [inject t packet] queues a packet for delivery on a later tick.
    Raises [Invalid_argument] if longer than [mtu]. *)
val inject : t -> string -> unit

(** [take_transmitted t] returns frames transmitted since the last call,
    oldest first. *)
val take_transmitted : t -> string list

(** [pending_wire t] is the number of injected-but-undelivered packets. *)
val pending_wire : t -> int

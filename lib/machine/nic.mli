(** Simulated DMA network interface.

    The NIC is the "shared network device" of the paper's motivating
    example: its driver maps the register window through the I/O-space
    service, gives the device receive buffers (physical frames), and turns
    its interrupts into pop-up threads. Packet data is DMA'd straight into
    physical memory, so the protocol stack's per-byte work happens on the
    memory bus — which is what the SFI baseline taxes.

    The device's descriptor rings are fixed memory, as on a real NIC:
    the receive ring holds {!rx_slots} descriptors and the transmit ring
    {!tx_slots}, and a descriptor costs no allocation. A receive
    descriptor is a buffer the driver has posted and the device has not
    yet filled (the free list) or a filled frame the driver has not yet
    popped (the completion queue); buffers fill in posted order.

    Register map (one 32-bit register per index):
    - 0 [CTRL]: bit0 rx enable, bit1 tx enable, bit2 irq enable,
      bit3 loopback (transmitted frames go to the receive side instead
      of the wire)
    - 1 [STATUS]: bit0 rx pending, bit1 tx done; write-1-to-clear.
      Clearing bit0 pops the current rx descriptor and exposes the next.
    - 2 [RX_FREE]: write a physical address to post a receive buffer
      (each buffer must hold [mtu] bytes; a post while the receive ring
      holds {!rx_slots} descriptors is dropped); read = posted buffers
      not yet filled
    - 3 [RX_ADDR] (read-only): physical address of the filled buffer
    - 4 [RX_LEN] (read-only): its length
    - 5 [TX_ADDR], 6 [TX_LEN]: transmit staging
    - 7 [TX_GO]: write 1 to enqueue the staged transmit into the tx
      descriptor ring (up to {!tx_slots} in flight; against a full ring
      the descriptor is dropped and nothing is counted — check TX_FREE
      first)
    - 8 [RX_DROPPED] (read-only): packets dropped for want of buffers
    - 9 [TX_FREE] (read-only): free tx descriptor slots *)

type t

val mtu : int

(** Receive descriptor-ring capacity: posted buffers plus filled frames
    not yet popped. *)
val rx_slots : int

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

(** How many transmitted frames the wire keeps between two
    {!take_transmitted} calls: 4096. A frame sent in loopback mode never
    reaches the wire, so it is not kept. *)
val capture : int

(** [take_transmitted t] returns the frames transmitted onto the wire
    since the last call, oldest first. Only the newest {!capture} of them
    are kept: a reader that lets more go out between two calls gets
    those, and the older ones are gone. A frame sent in loopback mode
    goes to the receive side and is not among them. *)
val take_transmitted : t -> string list

(** [pending_wire t] is the number of injected-but-undelivered packets. *)
val pending_wire : t -> int

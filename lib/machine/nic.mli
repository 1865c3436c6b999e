(** Simulated DMA network interface.

    The NIC is the "shared network device" of the paper's motivating
    example: its driver maps the register window through the I/O-space
    service, gives the device receive buffers (physical frames), and turns
    its interrupts into pop-up threads. Packet data is DMA'd straight into
    physical memory, so the protocol stack's per-byte work happens on the
    memory bus — which is what the SFI baseline taxes.

    {b The buffer contract.} The device, not the CPU, moves a frame
    between the wire and memory, and it names a buffer by the physical
    address the driver posted: no byte is charged and no address is
    translated until code reads or writes the frame (a driver fills or
    empties a buffer with {!Machine.dma} at that address, so it keeps
    each buffer's frame from the time it allocates it). A posted
    receive buffer is the device's until it fills; RX_ADDR then reports
    its address, and the driver takes the frame from there only if it
    posted that address, lends it to the protocol stack and posts the
    buffer again (RX_FREE) only after the stack's [rx] has returned. On
    transmit the driver stages the sender's frame for the device without
    a CPU copy, and the descriptor points at it; the device reads it at
    its DMA, so a staged frame must not change between TX_GO and its
    tx-done.

    {b The frame check sequence.} The device, not the CPU, computes and
    checks each frame's fcs, as Ethernet controllers do: a frame's last
    {!fcs_len} bytes hold the ones' complement sum ({!Cksum.fold16}) of
    every byte before them. On transmit the device writes that sum into
    the frame's trailer as the frame leaves (the staged bytes in memory
    are not written back); a frame shorter than the trailer goes out as
    it lies. On receive it checks the sum before anything else: a frame
    whose sum does not match is counted in RX_BAD_FCS and dropped. It
    takes no buffer, is never DMA'd and raises no interrupt. The sum is
    the device's work and charges no cycle; a frame injected on the wire
    must come sealed ({!seal}), as the sending device would have left
    it.

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
    - 9 [TX_FREE] (read-only): free tx descriptor slots
    - 10 [RX_BAD_FCS] (read-only): frames dropped because their fcs did
      not match *)

type t

val mtu : int

(** Receive descriptor-ring capacity: posted buffers plus filled frames
    not yet popped. *)
val rx_slots : int

(** Transmit descriptor-ring capacity. *)
val tx_slots : int

(** The frame check sequence's length: a frame's last 2 bytes. *)
val fcs_len : int

(** [seal frame] writes the fcs into [frame]'s last {!fcs_len} bytes: the
    ones' complement sum of every byte before them, what the device writes
    as a frame leaves. Raises [Invalid_argument] if [frame] is shorter
    than {!fcs_len}. *)
val seal : bytes -> unit

(** [create machine ~irq_line] builds the NIC and attaches it to the
    machine. *)
val create : Machine.t -> irq_line:int -> t

val io_base : t -> int

(** {1 The wire} — test/workload side of the device. *)

(** [inject t packet] queues a packet for delivery on a later tick; the
    device drops it there unless its fcs matches (see {!seal}). Raises
    [Invalid_argument] if longer than [mtu]. *)
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

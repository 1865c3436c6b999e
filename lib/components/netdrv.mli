(** Network device driver component.

    The paper's running example of a shared kernel component: the driver
    allocates the NIC's register window through the I/O-space service
    ("device drivers use this service to allocate I/O space and map in the
    device registers into their protection domain"), hands the device
    DMA buffers, and turns receive interrupts into pop-up threads that
    push packets to an attached sink (normally the protocol stack).

    Exported interface ["netdev"]:
    - [send(frame:blob) -> unit] — transmit a raw frame
    - [attach(path:str) -> unit] — bind the rx sink by name; the sink must
      export ["stack"] with [rx(blob)]
    - [detach() -> unit]
    - [stats() -> (rx:int, tx:int)]
    - [mtu() -> int]
    - [dropped() -> int] — rx frames the device dropped: for want of
      buffers (RX_DROPPED) or for a bad fcs (RX_BAD_FCS)

    {b The CPU copies and translates nothing.} The device DMAs a frame
    between its buffer and memory by the buffer's physical address
    ({!Pm_machine.Machine.dma}), so the driver charges no byte of it and
    takes no TLB fill for it: whoever reads or writes a frame's bytes
    with the CPU charges them. The driver learns each buffer's frame
    once, when [create] allocates it, and takes a received frame only
    from an address it posted (any other is acknowledged and dropped).
    A received frame is lent to the sink for the length of its [rx]
    call, and the driver re-posts the buffer to the device only after
    [rx] returns (or raises). A transmitted frame goes out where it
    lies: the driver stages the sender's frame for the device's DMA, or
    keeps that same frame in its backlog while the ring is busy, so a
    sender must not change a frame it has handed to [send]. The driver
    keeps 8 DMAs in flight at most, one staging page each: [send] posts
    directly only on an idle ring, and the tx_done interrupt is the sole
    writer while DMAs are in flight, refilling every free slot from the
    in-order backlog. Its I/O grant is exclusive. *)

type config = {
  rx_buffers : int;  (** DMA receive buffers to give the device (<= [Nic.rx_slots]) *)
  loopback : bool;  (** transmitted frames are re-injected (testing/RPC) *)
}

val default_config : config

(** [create api dom ?config ()] builds the driver in [dom]: allocates the
    I/O grant and buffers, enables the device, and registers the pop-up
    interrupt handler. *)
val create :
  Pm_nucleus.Api.t -> Pm_nucleus.Domain.t -> ?config:config -> unit -> Pm_obj.Instance.t

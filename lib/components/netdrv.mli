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
    - [dropped() -> int] — rx packets the device dropped for want of
      buffers *)

type config = {
  rx_buffers : int;  (** DMA receive buffers to give the device (<= [Nic.rx_slots]) *)
  tx_slots : int;
      (** tx staging pages / max DMAs kept in flight (<= [Nic.tx_slots]).
          The send path posts directly only on an idle ring; the tx_done
          interrupt is the sole writer while DMAs are in flight, refilling
          every free slot from the in-order backlog. *)
  loopback : bool;  (** transmitted frames are re-injected (testing/RPC) *)
  io_sharing : Pm_nucleus.Vmem.sharing;
}

val default_config : config

(** [create api dom ?config ()] builds the driver in [dom]: allocates the
    I/O grant and buffers, enables the device, and registers the pop-up
    interrupt handler. *)
val create :
  Pm_nucleus.Api.t -> Pm_nucleus.Domain.t -> ?config:config -> unit -> Pm_obj.Instance.t

(** The channel-backed network data path.

    The mailbox path ({!Pm_components.Stack}) makes an application poll
    the stack through a proxy — a page fault and two context switches
    per [recv], and the same again per [send]. This module rewires both
    directions of every bound port over shared-memory rings:

    {v
            driver ──rx ring──▶ stack ──per-port SPSC ring──▶ app
      app ──┐
      app ──┼──MPSC tx group──▶ stack ──▶ driver
      app ──┘
    v}

    {b Receive}: {!bind} binds a port on the stack, builds a dedicated
    SPSC ring (producer = the stack's domain, consumer = the owning
    application), and attaches a same-domain sink so decoded payloads
    are enqueued as {!Netwire.Delivery} messages instead of queued in a
    mailbox. The application drains with {!Pm_chan.Chan.recv_batch} —
    doorbell or poll, selectable per port with {!set_rx_mode} so a
    placement agent ({!Pm_obs_agent.Placer}) can manage the trade.

    {b Transmit}: all senders share one {!Pm_chan.Mpsc} group draining
    into the stack's domain. {!attach_tx} gives each producer its own
    sub-ring; {!submit} enqueues a {!Netwire.Txreq}, and the group's
    doorbell pop-up (or an explicit {!drain_tx}) decodes each request
    and runs the stack's ordinary encode path into the driver.

    Payload bytes are charged by the {!Netwire} codecs through the
    caller's {!Pm_obj.Call_ctx} — once per side; the rings themselves
    run with [~account:false] (the zero-copy contract). *)

type t

(** [create api ~stack ~stack_domain ()] prepares the rewiring for a
    stack instance (the composite's exported ["stack"] interface).
    [rx_slots] (default 64) sizes each per-port receive ring; each
    producer's transmit sub-ring has 64 slots. Every slot holds one NIC
    frame, the MTU rounded up to a word. *)
val create :
  Pm_nucleus.Api.t ->
  stack:Pm_obj.Instance.t ->
  stack_domain:Pm_nucleus.Domain.t ->
  ?rx_slots:int ->
  unit ->
  t

(** Channel-bound ports, ascending. *)
val ports : t -> int list

(** [bind t ~port ~owner ()] binds [port] on the stack and routes its
    deliveries onto a fresh ring consumed by [owner]. [mode] (default
    [Doorbell]) sets the ring's doorbell behaviour. *)
val bind :
  t ->
  port:int ->
  owner:Pm_nucleus.Domain.t ->
  ?mode:Pm_chan.Chan.mode ->
  unit ->
  (Pm_chan.Chan.t, string) result

(** [unbind t ~port] detaches the sink and unbinds the port. *)
val unbind : t -> port:int -> (unit, string) result

(** Flip one port's receive ring between [Doorbell] and [Poll]. *)
val set_rx_mode : t -> port:int -> Pm_chan.Chan.mode -> (unit, string) result

(** The shared transmit group (created on first use). *)
val tx_group : t -> Pm_chan.Mpsc.t

(** [attach_tx t ~producer] joins [producer] to the transmit group,
    returning its private send handle. *)
val attach_tx : t -> producer:Pm_nucleus.Domain.t -> Pm_chan.Mpsc.tx

val set_tx_mode : t -> Pm_chan.Chan.mode -> unit

(** [submit txh ctx ~dst ~sport ~dport payload] enqueues one transmit
    request on the producer's sub-ring; [false] when it is full (the
    request is counted as a drop). Marshalling is charged to [ctx]. *)
val submit :
  Pm_chan.Mpsc.tx ->
  Pm_obj.Call_ctx.t ->
  dst:int ->
  sport:int ->
  dport:int ->
  bytes ->
  bool

(** [drain_tx t] decodes and sends every pending transmit request
    inline (polling mode); returns requests drained. The doorbell
    pop-up runs exactly this. *)
val drain_tx : t -> int

(** [(sent, failed)] transmit requests since creation. *)
val tx_stats : t -> int * int

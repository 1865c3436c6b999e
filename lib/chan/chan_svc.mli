(** The channel factory: channels as ordinary name-space citizens.

    The factory is registered at [/shared/chan] at boot. Any domain
    binds it through the name space and drives it through the
    ["chanfactory"] interface:

    - [create(name:str, slots:int, slot_size:int) -> handle] — allocate
      a ring with the {e calling} domain as producer; the transmit
      endpoint object is registered at [/chan/<name>/tx]
    - [accept(name:str) -> handle] — map the ring into the calling
      domain as consumer; the receive endpoint object is registered at
      [/chan/<name>/rx]
    - [list() -> list of str] — names of live channels

    Endpoint objects are plain instances, so the usual machinery
    applies: another domain imports them through proxies, and an
    interposing agent ({!Pm_components.Interpose}) swapped in at
    [/chan/<name>/tx] monitors every message crossing the channel, just
    like any other agent.

    A transmit endpoint exports ["chan.tx"] ([send], [pending],
    [stats]) and also ["stack"] with [rx(blob)], so it can stand in for
    a protocol stack as a NIC driver's receive sink — the
    channel-backed receive path ({!bridge}). A receive endpoint exports
    ["chan.rx"] ([recv] — drain a batch and re-arm the doorbell,
    [pending], [stats]). *)

(** [create api ~domain_of_id ()] builds the factory instance in the
    kernel domain. [domain_of_id] resolves a call's origin domain id to
    the domain — the same injection pattern the trace service uses for
    its interposer factory. *)
val create :
  Pm_nucleus.Api.t ->
  domain_of_id:(int -> Pm_nucleus.Domain.t option) ->
  unit ->
  Pm_obj.Instance.t

(** [tx_endpoint api chan] / [rx_endpoint api chan] build endpoint
    objects directly (the factory uses these; benches and bridges can
    too). The tx endpoint lives in the producer domain, the rx endpoint
    in the consumer domain (requires {!Chan.accept} first). *)
val tx_endpoint : Pm_nucleus.Api.t -> Chan.t -> Pm_obj.Instance.t

val rx_endpoint : Pm_nucleus.Api.t -> Chan.t -> Pm_obj.Instance.t

(** [bridge api ~producer ~consumer ~stack ()] rewires a receive path
    over a channel: builds a 64-slot ring of MTU-sized slots from
    [producer] (the driver's domain) to [consumer] (the stack's), returns a tx endpoint whose ["stack"]
    [rx] enqueues frames (dropping when full, as a NIC does), and
    registers a doorbell pop-up in [consumer] that drains each burst and
    hands it to [stack]'s [rx_batch] in one invocation — the mailbox hop
    without a proxy crossing per frame. *)
val bridge :
  Pm_nucleus.Api.t ->
  producer:Pm_nucleus.Domain.t ->
  consumer:Pm_nucleus.Domain.t ->
  stack:Pm_obj.Instance.t ->
  unit ->
  Pm_obj.Instance.t * Chan.t

(** The network factory: the channel-backed data path as a name-space
    citizen.

    Conventionally registered at [/shared/net]. Any domain binds it and
    drives the ["netfactory"] interface:

    - [bind(port:int) -> handle] — bind [port] with the {e calling}
      domain as owner: the port's receive ring is consumed by the
      caller, and the caller joins the shared transmit group with a
      private sub-ring. The receive endpoint (a {!Pm_chan.Chan_svc}
      ["chan.rx"] object) is registered at [/net/<port>/rx] and the
      transmit endpoint at [/net/<port>/tx] — ordinary names, so an
      interposing agent can be swapped in front of either
    - [unbind(port:int) -> unit]
    - [list() -> list of int] — channel-bound ports
    - [drain() -> int] — decode and send pending transmit requests
      inline (polling mode)
    - [stats() -> list] — [tx_sent; tx_failed]

    A transmit endpoint exports ["net.tx"]:
    - [send(dst:int, sport:int, dport:int, payload:blob) -> bool] —
      enqueue one transmit request ([false] = sub-ring full, dropped)
    - [pending() -> int], [stats() -> list] ([sends; drops]) *)

val create :
  Pm_nucleus.Api.t ->
  Netstack_chan.t ->
  domain_of_id:(int -> Pm_nucleus.Domain.t option) ->
  unit ->
  Pm_obj.Instance.t

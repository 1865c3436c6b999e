(** Batched cross-domain calls over a pair of {!Chan} rings.

    Where the proxy path pays a page fault, two context switches and
    per-word argument mapping on {e every} call (E3: ~93–174× the
    same-domain dispatch), this transport marshals N calls into one ring
    slot and pays the crossing — one doorbell (a trap from a user-domain
    client), one pop-up, two context switches — once per batch.

    {2 Wire format}

    A batch is one ring message: a 16-bit call count followed by
    length-prefixed {!Pm_components.Wire.Transport} segments. A request
    segment carries the call id in [sport] and a
    [[nlen][name][args]] payload; a response segment echoes the id in
    [sport], the status in [dport] (0 = ok) and carries the result
    bytes. Segments are read where they lie in the batch, and the
    marshalling bytes are charged as {!Wire} charges them: a segment's
    header and checksum, and one payload copy on each side. The rings
    run with [~account:false] so each byte is paid for exactly once per
    side (the zero-copy contract).

    {2 Flow}

    The client buffers [submit]ed calls and [flush] publishes them: one
    blocking enqueue, a doorbell if the server is dry, and — because the
    server's drain runs as a pop-up proto-thread inside the doorbell
    trap — responses are usually waiting in the reply ring by the time
    [flush] returns. [take] yield-polls for stragglers (a server handler
    that blocked promotes its proto-thread and completes under the
    scheduler). *)

type conn

(** {2 Batch codec} *)

(** [assemble ctx segs] marshals [segs] into one batch: the count, the
    request id word when tracing is on, then each segment behind its
    16-bit length. *)
val assemble : Pm_obj.Call_ctx.t -> bytes list -> bytes

(** [iter_segments ctx batch f] applies [f ~off ~len] to each segment
    of [batch] in order, where it lies; with tracing on, the header's
    request id becomes the ambient one. A batch comes from another
    domain, so every header field is checked against the batch length:
    at the first field that does not fit, the walk stops with [Error]
    naming it, after [f] has seen the segments before it. Never
    raises. *)
val iter_segments :
  Pm_obj.Call_ctx.t -> bytes -> (off:int -> len:int -> unit) -> (unit, string) result

val request_chan : conn -> Chan.t

(** [connect api ~client ~server ()] builds the ring pair, 64 slots of
    4096 bytes each way: requests flow client→server on a [Doorbell]
    channel, responses server→client on a [Poll] channel (the client
    drains replies right after flushing). *)
val connect :
  Pm_nucleus.Api.t ->
  client:Pm_nucleus.Domain.t ->
  server:Pm_nucleus.Domain.t ->
  unit ->
  conn

(** [serve api conn ~procedures ()] registers the server's doorbell
    pop-up: each ring drains every pending batch, dispatches the named
    procedures and publishes one response batch per request batch.
    [raw] (if given) handles requests submitted with an empty name —
    the hook {!transport} uses to carry foreign protocols such as
    {!Pm_components.Rpc}. *)
val serve :
  Pm_nucleus.Api.t ->
  conn ->
  procedures:(string * Pm_components.Rpc.handler) list ->
  ?raw:Pm_components.Rpc.handler ->
  unit ->
  unit

(** [client api conn ()] builds the client endpoint object (in the
    client domain). It exports ["rpc.batch"]:
    - [submit(name:str, args:blob) -> int] — marshal now, send later
    - [flush() -> int] — publish the batch, returns calls flushed
    - [take(id:int) -> blob] — result of a flushed call ([Fault] on a
      remote error or timeout)
    - [call(name:str, args:blob) -> blob] — submit+flush+take of one
    - [call_many(list of (name, args) pairs) -> list of blob] — the
      batch verb: N calls, one crossing each way

    and ["rpc.transport"]: [call(blob) -> blob], a synchronous
    request/response round trip for layering {!Pm_components.Rpc}
    ({!Pm_components.Rpc.create_client_via}) over a channel. A [take]
    gives up after 10000 yield-polls. *)
val client : Pm_nucleus.Api.t -> conn -> unit -> Pm_obj.Instance.t

(** [create_server api conn ~procedures ()] is the channel-backed mode
    of {!Pm_components.Rpc.create_server}: the same ["rpc.server"]
    object — [poll() -> int], [requests() -> int], [failures() -> int] —
    speaking the same classic wire format, but served from the ring
    pair via {!serve} (mounted through
    {!Pm_components.Rpc.raw_handler}), so a user-space server never
    sees a per-call proxy fault. Pair it with
    {!Pm_components.Rpc.create_client_via} riding {!client}'s
    ["rpc.transport"], or with {!client}'s batched verbs directly. *)
val create_server :
  Pm_nucleus.Api.t ->
  conn ->
  procedures:(string * Pm_components.Rpc.handler) list ->
  unit ->
  Pm_obj.Instance.t

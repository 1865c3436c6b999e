(** RPC component over the protocol stack.

    The paper's §2 example of interface evolution is an RPC object gaining
    a measurement interface without disturbing its users; this module
    provides the RPC object and {!add_measurement} adds that interface to
    a live client.

    A server exports ["rpc.server"]:
    - [poll() -> int] — process pending requests, returning how many
    - [requests() -> int], [failures() -> int]

    A client exports ["rpc"]:
    - [call(name:str, args:blob) -> blob] — must run inside a thread: it
      yield-polls for the response while the simulation delivers packets

    Request wire format: [id(4) rport(2) nlen(1) name payload]; response:
    [id(4) status(1) payload]. *)

(** A procedure: receives the raw argument bytes, returns result bytes or
    an application error string. *)
type handler = Pm_obj.Call_ctx.t -> bytes -> (bytes, string) result

(** {2 Wire codecs}

    Exposed so alternative carriers (channels) and tests can speak the
    protocol without a stack in the loop. *)

val encode_request : id:int -> rport:int -> name:string -> bytes -> bytes

val decode_request : bytes -> (int * int * string * bytes, string) result

val status_ok : int
val status_error : int

val encode_response : id:int -> status:int -> bytes -> bytes

val decode_response : bytes -> (int * int * bytes, string) result

(** [raw_handler ~procedures] is one classic-wire exchange as a
    {!handler}: decode a request, dispatch the procedure table, encode
    the response (application status inside). Mounting it as a channel
    carrier's raw hook is the server's channel-backed mode —
    {!Pm_chan.Rpc_chan.create_server} packages exactly that, giving a
    ["rpc.server"] object whose callers never pay a per-call proxy
    fault. *)
val raw_handler : procedures:(string * handler) list -> handler

(** [create_server api dom ~stack_path ~port ~procedures] binds [port] on
    the stack and serves the given procedures. For the channel-backed
    mode of the same server — same wire format, same ["rpc.server"]
    interface, but requests arriving over a shared-memory ring pair
    instead of the stack — see {!Pm_chan.Rpc_chan.create_server}. *)
val create_server :
  Pm_nucleus.Api.t ->
  Pm_nucleus.Domain.t ->
  stack_path:string ->
  port:int ->
  procedures:(string * handler) list ->
  Pm_obj.Instance.t

(** [create_client api dom ~stack_path ~port ~server ()] makes a client
    bound to local [port] talking to [server = (addr, port)]. A call
    gives up after 10000 yield-polls. *)
val create_client :
  Pm_nucleus.Api.t ->
  Pm_nucleus.Domain.t ->
  stack_path:string ->
  port:int ->
  server:int * int ->
  unit ->
  Pm_obj.Instance.t

(** [create_client_via api dom ~transport ()] makes a client whose
    requests ride [transport] — any instance exporting ["rpc.transport"]
    with [call(blob) -> blob], e.g. a shared-memory channel endpoint
    ({!Pm_chan.Rpc_chan.client}) — instead of the protocol stack. Wire
    format and failure propagation are identical; only the carrier
    differs. *)
val create_client_via :
  Pm_nucleus.Api.t ->
  Pm_nucleus.Domain.t ->
  transport:Pm_obj.Instance.t ->
  unit ->
  Pm_obj.Instance.t

(** [add_measurement client] adds the ["rpc.measure"] interface —
    [calls() -> int] and [cycles() -> int] — to an existing client
    instance; both read the counts the client keeps in its ["rpc"]
    interface's state pointer. Existing bindings to ["rpc"] are untouched. Raises
    [Invalid_argument] if [client] is not one of ours or already has it. *)
val add_measurement : Pm_obj.Instance.t -> unit

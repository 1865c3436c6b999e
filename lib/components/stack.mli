(** Protocol stack component.

    The paper's archetypal relocatable component ("protocol stack
    implementations that are shared between multiple non-cooperating
    users"): three layer objects — framer, network, transport — plus a
    controller, assembled into a [Dynamic] composition so any layer can be
    swapped at run time.

    The composition exports one interface, ["stack"]:
    - [rx(frame:blob) -> unit] — entry point the network driver calls
    - [send(dst:int, sport:int, dport:int, payload:blob) -> unit]
    - [bind_port(port:int) -> unit], [unbind_port(port:int) -> unit]
    - [recv(port:int) -> list] — drain the port's mailbox; each element is
      [Pair(Pair(src, sport), payload)]
    - [pending(port:int) -> int]
    - [stats() -> list] — [rx_ok; rx_dropped; tx; rx_filtered]
    - [set_filter(code:blob, sandboxed:bool) -> unit] — download a
      bytecode packet filter ({!Pm_vm}); it runs over every received raw
      frame, dropping those it returns 0 for. With [sandboxed], the code
      is SFI-rewritten first (for uncertified filters); otherwise it runs
      raw, which is only safe for certified filters
    - [clear_filter() -> unit]
    - [address() -> int]
    - [attach_port(port:int, sink:handle) -> unit] — route the bound
      port's deliveries to [sink]'s ["netsink"] interface
      ([deliver(src:int, sport:int, payload:view)]) instead of the
      mailbox; {!Pm_net} uses this to feed each port's receive ring
    - [detach_port(port:int) -> unit] — back to mailbox delivery

    Each layer exports ["layer"], and a packet passes between layers as
    a {!view_type} of the one buffer it lives in ({!Wire}'s one-copy
    rule):
    - transport: [encode(sport, dport, payload:blob) -> view] allocates
      the frame with room for every header and the trailer, and copies
      the payload in; [decode(view) -> ((sport, dport), view)]
    - net: [encode(src, dst, proto, view) -> view] writes its header in
      front of the view; [decode(view) -> ((src, dst), (proto, view))]
    - framer: [encode(dst, src, view) -> blob] writes its header and
      trailer and returns the whole buffer, which the view must fill but
      for them; [decode(frame:blob) -> ((dst, src), view)]

    The receive path copies the payload once, into the mailbox entry or
    (through the sink) the port's ring message.

    Addresses are 16-bit and double as link-layer addresses; [0xffff]
    broadcasts. The driver is bound by name on first use, so load order
    does not matter. *)

(** [((off, len), buf)]: the [len] bytes at [off] of [buf]. *)
val view_type : Pm_obj.Vtype.t

(** [view buf ~off ~len] is that value. *)
val view : bytes -> off:int -> len:int -> Pm_obj.Value.t

(** [create api dom ~addr ~driver_path] builds the stack composition in
    [dom]. *)
val create :
  Pm_nucleus.Api.t ->
  Pm_nucleus.Domain.t ->
  addr:int ->
  driver_path:string ->
  Pm_obj.Composite.t

(** [replace_layer comp name inst] swaps a layer ("framer", "net",
    "transport"); the replacement must export ["layer"]. *)
val replace_layer : Pm_obj.Composite.t -> string -> Pm_obj.Instance.t -> unit

(** [layer_names] — the replaceable children. *)
val layer_names : string list

(** The network-layer protocol number the transport layer uses. *)
val proto_transport : int

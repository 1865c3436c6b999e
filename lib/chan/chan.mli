(** Zero-copy shared-memory channels.

    A channel is a bounded single-producer/single-consumer ring laid out
    in pages that {!Pm_nucleus.Vmem} allocates [Shared] in the producer's
    domain and {!Pm_nucleus.Vmem.map_shared} maps into the consumer's —
    the paper's "pages can be allocated exclusively or shared among
    different protection domains" put to work as a data path. Both
    endpoints address the same physical frames, so a message is written
    once by the producer and read once by the consumer; no proxy fault,
    no per-word argument mapping.

    {2 Cycle-accounted wire format}

    The ring starts with a 32-byte header of 32-bit words:

    {v
    word 0  magic      0xC4A70001
    word 1  slots      ring capacity (messages)
    word 2  slot_size  payload bytes per slot
    word 3  tail       free-running producer index (producer-written)
    word 4  head       free-running consumer index (consumer-written)
    word 5  armed      doorbell request flag (consumer arms, producer clears)
    v}

    followed by [slots] slots of [4 + slot_size] bytes, each a length
    word plus payload. Each side keeps its own index in private memory
    and reads only the word owned by the other side, so per message the
    producer pays one shared-word read (head), the payload store, and
    two shared-word writes (length, tail) plus the armed-flag read; the
    consumer pays one shared-word read (tail), the length read, the
    payload load, and one shared-word write (head). Shared-word traffic
    is charged at [mem_read]/[mem_write]; payload bytes are charged one
    bus access per byte on each side. Callers whose bytes were already
    charged by a marshalling layer (e.g. {!Wire} build/parse in
    {!Rpc_chan}) pass [~account:false] to avoid double-charging the
    copy — that is the zero-copy contract: every payload byte is paid
    for exactly once per side, wherever it was materialised.

    {2 Doorbell vs polling}

    In [Doorbell] mode the consumer arms the doorbell whenever it runs
    dry; the next enqueue clears the flag and raises the channel trap
    vector with the channel id as argument, which {!Pm_nucleus.Events}
    delivers into the consumer's domain — typically as a proto-thread
    pop-up registered with {!on_doorbell}. While the ring is non-empty
    the flag stays clear and enqueues skip the trap entirely, so a
    loaded channel degenerates to pure polling. [Poll] mode never rings.

    {2 Back-pressure}

    [send] on a full ring and [recv] on an empty one park the caller on
    a {!Pm_threads.Sync.Waitq} (so they must run inside a thread or
    proto-thread); the opposite endpoint signals the queue on progress.
    [try_send]/[try_recv] never block. *)

type mode = Doorbell | Poll

type t

(** The trap vector every channel and {!Mpsc} group doorbell shares; the
    trap argument carries the channel or group id. *)
val doorbell_vec : int

(** [fresh_id machine] is the next id from the counter [machine]'s
    channels and {!Mpsc} groups share, so doorbell ids never collide. *)
val fresh_id : Pm_machine.Machine.t -> int

val header_bytes : int

type stats = {
  sends : int;
  recvs : int;
  doorbells : int;
  full_blocks : int;  (** sends that had to park on a full ring *)
  empty_blocks : int;  (** recvs that had to park on an empty ring *)
  drops : int;  (** non-blocking sends refused on a full ring *)
  bad_lengths : int;
      (** slots whose length word claimed more than the slot size:
          consumed unread (counted as ["chan_bad_length"]) *)
}

(** [create machine vmem ~producer ()] allocates the ring [Shared] in
    [producer]'s domain. [slots] defaults to 64, [slot_size] (bytes,
    multiple of 4) to 1024, [mode] to [Doorbell]. *)
val create :
  Pm_machine.Machine.t ->
  Pm_nucleus.Vmem.t ->
  ?name:string ->
  ?slots:int ->
  ?slot_size:int ->
  ?mode:mode ->
  producer:Pm_nucleus.Domain.t ->
  unit ->
  t

(** [accept t ~into] maps the ring's pages into the consumer domain and
    returns the base virtual address there. Raises [Invalid_argument] if
    the channel already has a consumer. *)
val accept : t -> into:Pm_nucleus.Domain.t -> int

val name : t -> string
val id : t -> int
val slots : t -> int
val slot_size : t -> int
val mode : t -> mode
val set_mode : t -> mode -> unit
val producer : t -> Pm_nucleus.Domain.t
val consumer : t -> Pm_nucleus.Domain.t option

(** Base virtual address of the ring in the producer's address space. *)
val producer_base : t -> int


(** Messages currently enqueued (bookkeeping view, uncharged). *)
val pending : t -> int

val stats : t -> stats

(** [try_send t msg] enqueues without blocking; [false] when full.
    Raises [Invalid_argument] if [msg] exceeds the slot size. *)
val try_send : ?account:bool -> t -> bytes -> bool

(** [send t msg] blocks on a full ring until the consumer makes room. *)
val send : ?account:bool -> t -> bytes -> unit

(** [send_or_drop t msg] is [try_send] but counts a refused message as a
    drop — the behaviour a NIC bridge wants. *)
val send_or_drop : ?account:bool -> t -> bytes -> bool

(** [try_recv t] dequeues without blocking. A slot whose length word
    (written by the producer, in shared memory) exceeds the slot size is
    consumed without reading its payload, counted in {!stats}, and
    skipped: the dequeue goes on to the slot behind it. *)
val try_recv : ?account:bool -> t -> bytes option

(** [recv t] blocks on an empty ring until the producer enqueues. *)
val recv : ?account:bool -> t -> bytes

(** [recv_batch t ()] drains up to [max] messages (default: everything),
    then re-arms the doorbell when in [Doorbell] mode and dry. *)
val recv_batch : ?account:bool -> ?max:int -> t -> unit -> bytes list

(** [arm t] requests a doorbell for the next enqueue (consumer side). *)
val arm : t -> unit

(** {2 Cross-CPU pricing}

    When the channel's endpoints are pinned to different CPUs of the
    machine ({!Pm_machine.Cpu}), ring traffic physically moves cache
    lines between cores: each successful send and recv charges
    {!Pm_machine.Cost.t.cacheline} per line the message occupies —
    {!lines_of_msg} — on the executing side's clock. Doorbells to a
    consumer on another CPU are delivered as IPIs. *)

(** Cache lines a message of [len] payload bytes drags across CPUs: the
    length word plus payload, plus one line for the published index
    word. *)
val lines_of_msg : int -> int

(** The endpoints are pinned to different CPUs of this machine (false
    on one CPU or with no consumer yet). *)
val is_cross_cpu : t -> bool

(** [on_doorbell t ~events ~sched f] registers [f] to run as a pop-up
    proto-thread in the consumer's domain whenever this channel rings.
    The underlying trap vector is shared between channels; the callback
    fires only for this channel's id. Requires a consumer. *)
val on_doorbell :
  t ->
  events:Pm_nucleus.Events.t ->
  sched:Pm_threads.Scheduler.t ->
  (unit -> unit) ->
  Pm_nucleus.Events.cb_id

(** {2 Linter introspection}

    Plain bookkeeping reads for the composition linter ({!Pm_check});
    none of these charge simulated cycles. *)

(** [iter_all ~machine f] visits every channel created on [machine], in
    creation order. *)
val iter_all : machine:Pm_machine.Machine.t -> (t -> unit) -> unit

(** [senders_seen t] lists the distinct MMU contexts that have enqueued
    on [t], in first-seen order — more than one is an SPSC ownership
    violation (unless the ring is an MPSC sub-ring, see {!group}). *)
val senders_seen : t -> int list

(** [group t] is [Some (group_name, owner_ctx)] when [t] is a
    per-producer sub-ring of an MPSC group ({!Mpsc}): exactly the owning
    MMU context may enqueue, and the linter checks that instead of the
    global single-producer rule. *)
val group : t -> (string * int) option

(** Tag [t] as an MPSC sub-ring owned by [owner_ctx] (called by
    {!Mpsc.attach}). *)
val set_group : t -> group:string -> owner_ctx:int -> unit

(** Domains of threads currently parked in a blocking [send] (full
    ring): they wait on the consumer's progress. *)
val blocked_senders : t -> int list

(** Domains of threads currently parked in a blocking [recv] (empty
    ring): they wait on the producer's progress. *)
val blocked_receivers : t -> int list

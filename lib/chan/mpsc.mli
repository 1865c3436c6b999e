(** Multi-producer single-consumer channel groups.

    {!Chan} is strictly SPSC: one free-running tail, one owner. This
    module composes many of those rings — one per producer, each in the
    producer's own pages — into a single consumer view, which is the
    shape a shared service endpoint (the protocol stack's tx side, a
    logging sink, an RPC server) actually has: many non-cooperating
    domains feeding one drain.

    {2 Wire format}

    The group adds one shared header page, owned by the consumer and
    mapped into every producer at {!attach}:

    {v
    word 0  magic      0xC4A70002
    word 1  producers  attached sub-ring count
    word 2  armed      group doorbell request flag (consumer arms,
                       the first producer to enqueue clears)
    word 3  dirty      producer hint: idx+1 of the last sub-ring that
                       enqueued (pure store; consumer clears on drain)
    v}

    Each sub-ring is an ordinary {!Chan} ring in [Poll] mode (it never
    rings for itself), tagged with {!Chan.set_group} so the composition
    linter checks per-sub-ring ownership — exactly one producer per
    sub-ring — instead of flat-rejecting the multi-producer group.

    {2 The reserve}

    Every enqueue, after the sub-ring's own SPSC traffic, performs one
    {e reserve} through the group header: a store publishing the dirty
    hint and a load of the shared armed flag, counted as
    ["mpsc_reserve"]. The publish is a compare-and-swap on the dirty
    word, and its price depends on who else is hitting that line {e at
    the same instant}: the reserve charges
    {!Pm_machine.Cost.mpsc_reserve_n} — the flat uncontended figure plus
    one CAS retry ({!Pm_machine.Cost.t.cas}, counted ["mpsc_cas_retry"])
    per {e concurrently-contending} producer, i.e. per other producer
    whose sub-ring is non-empty and whose domain is pinned to a
    different CPU of the machine ({!Pm_machine.Cpu}). With one CPU, or
    all producers on one CPU, contention is structurally zero
    (time-sliced producers never overlap a reserve) and the charge
    reduces to the flat {!Pm_machine.Cost.mpsc_reserve}.

    {2 Doorbell coalescing}

    The armed flag is {e group-wide}: when several producers enqueue
    before the consumer runs, only the first finds the flag set and
    traps; the rest see it clear and stay silent. One pop-up drains the
    whole burst round-robin. The consumer re-arms when a drain runs
    dry, exactly like {!Chan.recv_batch}.

    {2 Fairness}

    The consumer view drains round-robin with a rotating cursor, one
    message per sub-ring per pass, so a heavy producer cannot starve
    its neighbours; and because each producer blocks (or drops) only on
    its {e own} full sub-ring, back-pressure on one producer never
    stalls another. *)

type t

(** A per-producer send handle returned by {!attach}. *)
type tx

type stats = {
  sends : int;
  recvs : int;
  doorbells : int;
  drops : int;
  reserves : int;  (** group-header reserve transactions (one per send) *)
}

(** [create machine vmem ~consumer ()] allocates the group header page
    [Shared] in the consumer's domain. [slots]/[slot_size] size each
    per-producer sub-ring (defaults 64 x 1024, slot size a multiple of
    4); [mode] defaults to [Doorbell]. Group ids come from the
    machine's channel-id counter ({!Chan.fresh_id}), so groups and
    plain channels share the doorbell trap vector safely. *)
val create :
  Pm_machine.Machine.t ->
  Pm_nucleus.Vmem.t ->
  ?name:string ->
  ?slots:int ->
  ?slot_size:int ->
  ?mode:Chan.mode ->
  consumer:Pm_nucleus.Domain.t ->
  unit ->
  t

(** [attach t ~producer] creates the producer's private sub-ring, maps
    it into the consumer and the group header into the producer, and
    returns the send handle. *)
val attach : t -> producer:Pm_nucleus.Domain.t -> tx

val name : t -> string
val id : t -> int
val set_mode : t -> Chan.mode -> unit
val producers : t -> int

(** The sub-ring behind one send handle. *)
val sub_ring : tx -> Chan.t

(** Messages currently enqueued across all sub-rings (bookkeeping view,
    uncharged). *)
val pending : t -> int

val stats : t -> stats

(** [try_send tx msg] enqueues on the producer's own sub-ring without
    blocking, then reserves through the group header; [false] when that
    sub-ring is full. *)
val try_send : tx -> bytes -> bool

(** [send_or_drop tx msg] counts a refused message as a drop on the
    producer's sub-ring. *)
val send_or_drop : ?account:bool -> tx -> bytes -> bool

(** [try_recv t] dequeues one message round-robin across sub-rings,
    advancing the fairness cursor. *)
val try_recv : ?account:bool -> t -> bytes option

(** [recv_batch t ()] drains up to [max] messages round-robin. A dry
    group costs one shared read (the dirty hint) and re-arms the group
    doorbell in [Doorbell] mode; a drain stopped at [max] leaves the
    hint set, so the next drain finds what it left. *)
val recv_batch : ?account:bool -> ?max:int -> t -> unit -> bytes list

(** [arm t] requests a group doorbell for the next enqueue from any
    producer (consumer side). *)
val arm : t -> unit

(** [on_doorbell t ~events ~sched f] registers [f] as a pop-up
    proto-thread in the consumer's domain for this group's doorbell. *)
val on_doorbell :
  t ->
  events:Pm_nucleus.Events.t ->
  sched:Pm_threads.Scheduler.t ->
  (unit -> unit) ->
  Pm_nucleus.Events.cb_id

(** Cycle cost model for the simulated machine.

    The paper's performance arguments are all relative: interface dispatch
    vs plain call, trap-mediated cross-domain invocation vs in-kernel call,
    load-time certification vs per-access sandboxing, proto-thread vs full
    thread creation. This table pins those relative magnitudes to
    SPARC-era-flavoured constants (cheap calls, traps costing hundreds of
    cycles, context switches costing hundreds more) so experiments are
    deterministic and their shapes meaningful.

    All values are in cycles. *)

type t = {
  cycle : int;  (** one unit of straight-line work *)
  call : int;  (** direct procedure call + return (register windows) *)
  indirect_call : int;  (** call through an interface slot *)
  delegation_hop : int;  (** following one delegation link *)
  trap : int;  (** trap entry + exit *)
  interrupt : int;  (** interrupt entry + dispatch *)
  context_switch : int;  (** MMU context change *)
  page_fault : int;  (** fault identification and dispatch, excl. handler *)
  map_word : int;  (** mapping one argument word into another domain *)
  tlb_fill : int;  (** software TLB refill *)
  mem_read : int;  (** one bus read *)
  mem_write : int;  (** one bus write *)
  io_read : int;  (** device register read *)
  io_write : int;  (** device register write *)
  sfi_check : int;  (** one software-fault-isolation address check *)
  sfi_entry : int;  (** sandbox crossing on method entry/exit *)
  thread_create : int;  (** full thread creation *)
  proto_thread : int;  (** proto-thread creation (pop-up fast path) *)
  promote : int;  (** proto-thread -> full thread promotion *)
  thread_switch : int;  (** scheduler switch between ready threads *)
  ns_component : int;  (** resolving one name-space path component *)
  ns_override : int;  (** consulting one override entry *)
  digest_byte : int;  (** certification digest, per byte *)
  sig_verify : int;  (** one public-key signature verification *)
  verify_instr : int;  (** bytecode verification, per abstract-interpreted instruction *)
  load_page : int;  (** mapping one page of a component image *)
  blk_seek : int;  (** block-device per-operation latency (seek + controller) *)
  blk_byte : int;  (** block-device media transfer, per byte *)
  ipi : int;  (** inter-processor interrupt: bus signalling, sender side *)
  cacheline : int;  (** one cache-line transfer between CPUs (bus round-trip) *)
  cas : int;  (** one contended compare-and-swap retry *)
}

(** SPARC-era-flavoured defaults. *)
val default : t

(** {2 Derived figures}

    Sums that recur across subsystems, named once so tests and
    benchmarks share the model's arithmetic instead of copying it. *)

(** Cost of one uninstrumented interface dispatch ([indirect_call]). *)
val dispatch : t -> int

(** Cost of recording one trace span when tracing is enabled: a single
    ring-buffer store ([mem_write]). *)
val span_store : t -> int

(** [dispatch] + [span_store]: an interface dispatch with tracing on. *)
val traced_dispatch : t -> int

(** Fixed cost of a channel doorbell rung from a user domain into
    another domain on the same CPU: the trap, the MMU context switch
    into the consumer and back, and the pop-up proto-thread that drains
    the ring. A ring from the kernel's protection domain enters by a
    [call] instead of the trap, and one into the ringer's own domain
    switches nothing; [Chan.enter_doorbell] prices each ring as it
    enters. *)
val doorbell_crossing : t -> int

(** Extra shared-word traffic a multi-producer enqueue pays per reserve
    on top of its sub-ring's own accounting: publishing the sub-ring's
    dirty bit ([mem_write]) and reading the group's armed flag
    ([mem_read]). *)
val mpsc_reserve : t -> int

(** [mpsc_reserve_n t ~contended] is the reserve under true parallelism:
    the flat price plus one [cas] retry per producer concurrently active
    on a different CPU. [contended = 0] (any uniprocessor run) is exactly
    [mpsc_reserve t]. *)
val mpsc_reserve_n : t -> contended:int -> int

(** Cost of migrating one ready thread between CPUs during work
    stealing: two cache-line transfers plus the queue-inspection load. *)
val steal : t -> int

(** Media time of one block-device operation over [bytes] bytes:
    [blk_seek + bytes * blk_byte]. A fetched DMA descriptor completes
    exactly this many cycles after the device picks it up. *)
val blk_op : t -> bytes:int -> int

(** A uniform all-ones table, useful in tests to count abstract events. *)
val unit_costs : t

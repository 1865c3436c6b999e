(** Simulated block device with a DMA descriptor ring.

    The device consumes a ring of DMA descriptors the driver places in
    physical memory, so several operations stay in flight at once. The
    media itself is serialized: each fetched descriptor completes
    [Cost.blk_op] cycles after the previous one (per-op seek latency
    plus per-byte transfer), stamped on the virtual clock. When asked to
    make progress while operations are pending but not yet due, the
    device advances the clock to the earliest ready time — the CPU
    idling until the completion interrupt — which keeps queue-depth
    experiments honest and deterministic. A caller that cannot wait for
    an interrupt uses {!read_sync}/{!write_sync} instead.

    Register map (one 32-bit register per index):
    - 0 [RING_BASE]: physical address of the descriptor ring
    - 1 [RING_SLOTS]: ring capacity; writing resets all indices
    - 2 [TAIL]: free-running producer index (driver-written; writing
      past [head + ring_slots] is a protocol violation)
    - 3 [HEAD] (read-only): free-running completion index
    - 4 [CTRL]: bit0 enable, bit1 irq enable
    - 5 [STATUS]: bit0 completion pending; write-1-to-clear. Reading
      while operations are in flight lets the device make progress
      (including the idle-until-ready clock jump), so a polling driver
      terminates deterministically.
    - 6 [BLOCKS] (read-only), 7 [BLOCK_SIZE] (read-only)
    - 8 [COMPLETED] (read-only): operations completed since creation

    Descriptors are 16 bytes: cmd/status word (bits 0-1: 1 = read,
    2 = write; the device writes bit 8 done / bit 9 error back), block
    number, physical buffer address, reserved word.

    Every fetch and completion, and every synchronous transfer, is
    journalled ({!Pm_journal.Journal} [Blk_issue] / [Blk_complete]) and
    counted ([blk_issue], [blk_complete], [blk_error], [blk_wait]).
    Unwritten blocks read back as zeroes. *)

type t

(** [create machine ~name ~irq_line ~blocks ~block_size] attaches a
    device that {!Machine.find_device} (and so the I/O-space service)
    finds by [name]. *)
val create :
  Machine.t -> name:string -> irq_line:int -> blocks:int -> block_size:int -> t

val io_base : t -> int
val blocks : t -> int
val block_size : t -> int

(** Completed operations since creation. *)
val completed : t -> int

(** Fetched-but-not-completed operations. *)
val in_flight : t -> int

val reads : t -> int
val writes : t -> int

(** Descriptors rejected (bad op code or block out of range). *)
val errors : t -> int

(** Completion interrupts raised (coalesced: one per progress batch). *)
val irqs : t -> int

(** [read_sync t ~block ~phys_addr] copies one block into physical memory
    at once: the CPU stalls for one [Cost.blk_op ~bytes:block_size], the
    op counts and journals like a descriptor, and no interrupt is
    raised. Raises [Invalid_argument] on a block out of range, or while
    the ring has a descriptor published, fetched or in flight — a
    synchronous op never overtakes one. *)
val read_sync : t -> block:int -> phys_addr:int -> unit

(** [write_sync t ~block ~phys_addr] is {!read_sync} in the other
    direction: one block from physical memory to the media. *)
val write_sync : t -> block:int -> phys_addr:int -> unit

(** [peek_block t block] reads the media directly — test/workload side,
    no cycles charged. *)
val peek_block : t -> int -> string

(** Demand pager — a virtual-memory implementation *outside* the nucleus.

    §3 lists "virtual memory implementations" among the components that
    need not live in the kernel: the memory service supplies mechanism
    (reserved ranges, per-page fault call-backs, raw map/unmap) and this
    component supplies policy. It manages a region of [backing_pages]
    virtual pages in one domain, keeps at most [resident_budget] of them
    in physical frames, and pages the rest to a block device whose
    block size is the page size.

    Policy details:
    - page-in maps the page read-only; the first write faults again and
      upgrades to read-write, marking the page dirty — so clean pages are
      discarded for free and only dirty pages are written back;
    - eviction is CLOCK (second chance): the hand clears reference bits
      (set on every fault for the page) and evicts the first unreferenced
      page;
    - disk traffic uses the device's synchronous transfer (a fault
      handler cannot wait for a completion interrupt), each page-in or
      page-out one [Cost.blk_op] of a page.

    Exported interface ["pager"]:
    - [base() -> int], [pages() -> int] — the managed region
    - [stats() -> list] — [faults; pageins; pageouts; resident]
    - [flush() -> int] — write back every dirty resident page, returning
      how many were written *)

type t

(** [create api dom ~disk ~resident_budget ~backing_pages ~first_block]
    reserves the region, registers its fault call-backs and returns the
    pager. Blocks [first_block .. first_block+backing_pages-1] back
    the region. Raises [Invalid_argument] on a zero budget, if the
    blocks don't fit on the disk, or if the disk's block size is not
    the page size. *)
val create :
  Pm_nucleus.Api.t ->
  Pm_nucleus.Domain.t ->
  disk:Pm_machine.Blkdev.t ->
  resident_budget:int ->
  backing_pages:int ->
  first_block:int ->
  t

(** [instance t] is the pager as an object. *)
val instance : t -> Pm_obj.Instance.t

(** [base t] is the managed region's base virtual address in the client
    domain. *)
val base : t -> int

val resident : t -> int
val faults : t -> int
val pageins : t -> int
val pageouts : t -> int

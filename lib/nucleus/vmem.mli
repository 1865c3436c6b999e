(** Memory management service.

    "The management of virtual and physical pages, and MMU contexts, is
    done by the memory management service. Pages can be allocated
    exclusively or shared among different protection domains. Individual
    virtual pages can have fault call-backs associated with them. ...
    The memory management service also provides I/O space allocation."

    Virtual addresses are per-domain (each domain has its own bump-
    allocated region); shared allocations may be mapped into further
    domains, which reference-counts the underlying frames. Device
    register windows are granted exclusively or shared; device access
    goes through the grant, which is checked against the running
    context. *)

type t

type sharing = Exclusive | Shared

exception Vmem_error of string

val create : Pm_machine.Machine.t -> t

(** {1 Pages} *)

(** [alloc_pages t dom ~count ~sharing] allocates and maps [count] fresh
    zeroed pages read-write in [dom]; returns the base virtual address.
    It is all or nothing: when fewer than [count] frames are free it
    raises {!Vmem_error} and maps no page. *)
val alloc_pages : t -> Domain.t -> count:int -> sharing:sharing -> int

(** [free_pages t dom ~vaddr ~count] unmaps each page, removing its MMU
    entry and any fault hook or call-back, and drops its frame
    reference; a frame with no reference left goes back to physical
    memory. It charges no cycle. Raises {!Vmem_error} if a page is not
    an allocation owned by [dom]. *)
val free_pages : t -> Domain.t -> vaddr:int -> count:int -> unit

(** {1 Allocation marks}

    A mark names a point in the sequence of allocations; every
    {!alloc_pages} page and every {!map_shared} mapping made after it is
    "allocated since" it. A mark is each domain's next free virtual
    page when it was taken: virtual pages are handed out in increasing
    order and never reused, so allocations carry no stamp. The loader
    takes one around a component's constructor to learn what the
    constructor allocated, and a transaction takes one when it begins,
    to roll back to it. *)

type mark

val mark : t -> mark

(** [made_since m (domain id, vpage)] is whether an allocation at that
    page was made after [m] was taken. *)
val made_since : mark -> int * int -> bool

(** [allocated_since t m] is every allocation made since [m] that is
    still live, as [(domain id, vpage)] in ascending order. *)
val allocated_since : t -> mark -> (int * int) list

(** [release t (domain id, vpage)] frees that allocation as
    {!free_pages} would, if it is still live; otherwise it does
    nothing. *)
val release : t -> int * int -> unit

(** [map_shared t ~from_dom ~vaddr ~count ~into ~prot] maps pages of a
    [Shared] allocation into another domain; returns the base virtual
    address there. Raises {!Vmem_error} on [Exclusive] allocations. *)
val map_shared :
  t ->
  from_dom:Domain.t ->
  vaddr:int ->
  count:int ->
  into:Domain.t ->
  prot:Pm_machine.Mmu.prot ->
  int

(** [set_prot t dom ~vaddr prot] changes a page's protection. *)
val set_prot : t -> Domain.t -> vaddr:int -> Pm_machine.Mmu.prot -> unit

(** [set_fault_callback t dom ~vaddr f] attaches a fault call-back to the
    page containing [vaddr]; [f] returns [true] when it resolved the
    fault (the access retries). *)
val set_fault_callback :
  t -> Domain.t -> vaddr:int -> (Pm_machine.Mmu.fault -> bool) -> unit

val clear_fault_callback : t -> Domain.t -> vaddr:int -> unit

(** [hook_page t dom ~vaddr on] makes the page fault on every access
    (the proxy invocation mechanism). *)
val hook_page : t -> Domain.t -> vaddr:int -> bool -> unit

(** [pages_of t dom] is the number of pages currently mapped for [dom]. *)
val pages_of : t -> Domain.t -> int

(** Every live allocation as [(domain id, vpage)], sorted. *)
val alloc_keys : t -> (int * int) list

(** [phys_of t dom ~vaddr] is the physical address backing a mapped
    virtual address — what a driver writes into a DMA descriptor. Raises
    {!Vmem_error} if unmapped. *)
val phys_of : t -> Domain.t -> vaddr:int -> int

(** {1 Raw paging interface}

    Mechanism for external pagers: the nucleus provides virtual-range
    reservation and direct map/unmap; a paging *component* supplies the
    policy (what to evict, where pages live when not resident). This is
    how "virtual memory implementations" stay outside the nucleus. *)

(** [reserve_pages t dom ~count] allocates a virtual range without
    backing frames; every access faults until the pager maps something.
    Returns the base virtual address. *)
val reserve_pages : t -> Domain.t -> count:int -> int

(** [map_page t dom ~vaddr ~frame ~prot] installs a translation for one
    reserved page. The frame's lifecycle belongs to the caller. *)
val map_page : t -> Domain.t -> vaddr:int -> frame:int -> prot:Pm_machine.Mmu.prot -> unit

(** [unmap_page t dom ~vaddr] removes a translation, returning the frame.
    Raises {!Vmem_error} if not mapped. *)
val unmap_page : t -> Domain.t -> vaddr:int -> int

(** [set_page_prot t dom ~vaddr prot] adjusts protection on a
    pager-managed page (dirty tracking: map read-only, upgrade on write
    fault). *)
val set_page_prot : t -> Domain.t -> vaddr:int -> Pm_machine.Mmu.prot -> unit

(** [destroy_domain t dom] releases every allocation, fault call-back
    and I/O grant belonging to [dom]. Raw pager mappings (made with
    {!map_page}) are untouched — their frames belong to the pager, which
    must be torn down first. *)
val destroy_domain : t -> Domain.t -> unit

(** {1 I/O space} *)

type io_grant = private {
  grant_domain : int;
  device : string;
  io_base : int;
  reg_count : int;
  io_sharing : sharing;
}

(** [alloc_io t dom ~device ~sharing] grants [dom] access to a device's
    register window. An [Exclusive] grant refuses coexistence with any
    other grant on the device. *)
val alloc_io : t -> Domain.t -> device:string -> sharing:sharing -> io_grant

val release_io : t -> io_grant -> unit

(** Register access through a grant; checks the grant belongs to the
    currently running context. *)
val io_read : t -> io_grant -> reg:int -> int

val io_write : t -> io_grant -> reg:int -> int -> unit

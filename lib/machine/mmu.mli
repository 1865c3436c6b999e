(** Simulated MMU: per-context page tables with protection bits, per-page
    fault hooks, and a small TLB model.

    Contexts are the MMU half of Paramecium's protection domains: "objects
    can be placed in separate MMU contexts". Each context has its own
    virtual-to-frame mapping. A page can carry a [fault_hook] flag; a
    hooked page always faults on access, which is the hardware mechanism
    behind both per-page fault call-backs and cross-domain proxy
    invocations ("each interface entry will cause a page fault when
    referenced").

    The TLB is a direct-mapped cache of the current context's
    translations. A slot holds the frame and the page's protection, so a
    hit serves any access that protection allows: a write to a
    [Read_write] page hits just as a read does. A miss charges a
    [tlb_fill]; [set_prot], [set_fault_hook] and [unmap] drop the page's
    slot. [switch_context] flushes the TLB, so frequent context switches
    pay refill costs — exactly the effect that makes cross-domain calls
    expensive in the paper. *)

type t

type context = int

type access = Read | Write | Exec

type fault_reason = Unmapped | Protection | Hooked

type fault = { ctx : context; vaddr : int; access : access; reason : fault_reason }

type prot = No_access | Read_only | Read_write

val create : Clock.t -> Cost.t -> page_size:int -> t

(** [set_clock t clock] retargets where TLB and context-switch costs are
    charged — how a multi-CPU machine makes MMU traffic land on the
    executing CPU's clock. 1-CPU machines never call it. *)
val set_clock : t -> Clock.t -> unit

val page_size : t -> int

(** [new_context t] allocates a fresh, empty context. *)
val new_context : t -> context

(** [delete_context t ctx] drops a context and all its mappings. Returns
    the frames that were mapped, so the caller can release them. *)
val delete_context : t -> context -> int list

(** [switch_context t ctx] makes [ctx] current, charging the context-switch
    cost and flushing the TLB. No-op (and free) if [ctx] is current. *)
val switch_context : t -> context -> unit

val current_context : t -> context

(** [map t ctx ~vpage ~frame ~prot] installs a translation.
    Raises [Invalid_argument] if [vpage] is already mapped. *)
val map : t -> context -> vpage:int -> frame:int -> prot:prot -> unit

(** [unmap t ctx ~vpage] removes a translation and returns its frame. *)
val unmap : t -> context -> vpage:int -> int

val set_prot : t -> context -> vpage:int -> prot -> unit

(** [set_fault_hook t ctx ~vpage hooked] marks a page to always fault. *)
val set_fault_hook : t -> context -> vpage:int -> bool -> unit

val is_mapped : t -> context -> vpage:int -> bool

(** [frame_of t ctx ~vpage] is the frame backing a mapped page. *)
val frame_of : t -> context -> vpage:int -> int option

(** [translate t ctx vaddr access] resolves a virtual address in a given
    context (charging TLB costs against the clock when [ctx] is current)
    to a physical address, or explains the fault. *)
val translate : t -> context -> int -> access -> (int, fault) result

(** [tlb_hit t ctx vaddr access] is [translate]'s TLB hit alone: the
    physical address when the TLB holds [vaddr]'s page for the current
    context [ctx] with a protection allowing [access], [-1] otherwise.
    It charges nothing, changes nothing and allocates nothing; a [-1]
    must take [translate]. *)
val tlb_hit : t -> context -> int -> access -> int

val pp_fault : Format.formatter -> fault -> unit

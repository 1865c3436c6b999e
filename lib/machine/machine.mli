(** The simulated machine: physical memory, MMU, trap/interrupt vectors,
    an I/O register space with attached devices, and the cycle clock.

    This is the hardware Paramecium's nucleus runs on. The nucleus is the
    only code expected to install vector handlers and the fault handler;
    everything else goes through the nucleus services. *)

type t

(** Raised when a memory access faults and no handler resolves it. *)
exception Fatal_fault of Mmu.fault

(** Raised on machine-level protocol violations (bad io address, bad
    vector number). *)
exception Machine_check of string

(** [create ?cpus ()] builds a machine with [cpus] logical CPUs
    (default 1; must be positive). Each CPU owns a {!Clock}; all of them
    share CPU 0's observability sink and start at time 0. *)
val create :
  ?costs:Cost.t -> ?frames:int -> ?page_size:int -> ?cpus:int -> unit -> t

(** [clock t] is the clock of the CPU currently executing. Charge sites
    must read it at charge time, never cache it across a CPU switch. *)
val clock : t -> Clock.t

(** {1 CPUs}

    The table of the machine's CPUs. Every machine has at least one;
    the operations over them (affinity, interleaving, IPIs) live in
    {!Cpu}, which is the only code expected to touch this table. *)

type cpu = {
  clock : Clock.t;
  mutable halted : bool;
  mutable ipis_sent : int;
  mutable ipis_recv : int;
  mutable synced : int;  (** idle cycles absorbed by reconciliation *)
}

val cpus : t -> cpu array

(** The CPU currently executing (0 until a switch). *)
val current_cpu : t -> int

(** Domain-to-CPU pins; an unpinned domain runs on CPU 0. *)
val pins : t -> (int, int) Hashtbl.t

(** [switch_cpu t k] makes CPU [k] the executing one: {!clock}, the MMU's
    charges and the CPU id its journal stamps on events all follow it.
    Raises [Invalid_argument] for a CPU the machine does not have. *)
val switch_cpu : t -> int -> unit

(** [local t key make] is this machine's value for [key], built by
    [make] on first use: where layers above the machine keep their
    per-machine state, so it lives and dies with the machine. *)
val local : t -> 'a Type.Id.t -> (unit -> 'a) -> 'a

val costs : t -> Cost.t
val phys : t -> Physmem.t
val mmu : t -> Mmu.t
val page_size : t -> int

(** {1 Processor events}

    Vectors 0–31 are synchronous traps (raised by software), IRQ lines
    0–15 are asynchronous device interrupts. *)

val trap_vector_count : int
val irq_line_count : int

(** [set_trap_handler t vec h] installs/removes the handler for trap
    [vec]. The handler receives the trap argument and produces a result. *)
val set_trap_handler : t -> int -> (int -> int) option -> unit

(** [raise_trap t vec arg] charges the trap cost and runs the handler.
    Raises [Machine_check] if no handler is installed. *)
val raise_trap : t -> int -> int -> int

(** [call_trap t vec arg] runs trap [vec]'s handler as a procedure call
    from code already in the kernel's protection domain: it charges
    [call] instead of [trap] and counts no trap. Raises [Machine_check]
    if no handler is installed. *)
val call_trap : t -> int -> int -> int

val set_irq_handler : t -> int -> (unit -> unit) option -> unit

(** [raise_irq t line] charges the interrupt cost and runs the handler;
    an unhandled interrupt is counted and dropped (spurious). *)
val raise_irq : t -> int -> unit

(** [set_fault_handler t h] installs the page-fault handler. It returns
    [true] if the fault was resolved (the access is retried once). *)
val set_fault_handler : t -> (Mmu.fault -> bool) option -> unit

(** {1 Memory bus}

    Virtual-address access in a given MMU context, charging bus and
    translation costs; faults go through the fault handler. *)

val read8 : t -> Mmu.context -> int -> int
val write8 : t -> Mmu.context -> int -> int -> unit
val read32 : t -> Mmu.context -> int -> int
val write32 : t -> Mmu.context -> int -> int -> unit

(** Bulk copies charge exactly what a loop of {!read8} or {!write8} over
    the same bytes would: every cycle, counter, fault-handler call and
    raised fault is the same, and a write that faults has written the
    pages before the faulting one. They copy a page segment at a time:
    its first byte goes through the MMU, the rest is [mem_read] or
    [mem_write] per byte and one blit. *)
val read_bytes : t -> Mmu.context -> int -> int -> bytes

val write_bytes : t -> Mmu.context -> int -> bytes -> unit
val read_string : t -> Mmu.context -> int -> int -> string
val write_string : t -> Mmu.context -> int -> string -> unit

(** [dma t paddr buf access] moves a device-visible buffer by the
    physical address its driver posted to the device: with [Mmu.Read] it
    fills [buf] from the [Bytes.length buf] bytes at [paddr], with
    [Mmu.Write] it stores [buf] there. The device's DMA engine moves
    those bytes, not the CPU, and a device names memory by frame: nothing
    is translated, no cycle is charged, no counter moves and the TLB is
    left as it was. The transfer must lie inside one allocated frame: one
    that runs past its frame's end or lands in an unallocated frame
    raises [Machine_check] before any byte moves. A driver keeps its
    buffers' physical addresses from the time it allocates them, and
    whoever reads or writes a buffer's bytes with the CPU charges them
    ([Call_ctx.access]).

    {!read_bytes} and {!write_bytes} stay as the CPU's own copy: code
    that moves bytes itself pays for each one. *)
val dma : t -> int -> bytes -> Mmu.access -> unit

(** {1 I/O space and devices} *)

(** [attach_device t dev] assigns the device a register window and returns
    its base io address. *)
val attach_device : t -> Device.t -> int

(** [io_read t addr] / [io_write t addr v] access a device register by io
    address, charging io costs. Raise [Machine_check] on unmapped
    addresses. *)
val io_read : t -> int -> int

val io_write : t -> int -> int -> unit

(** [devices t] lists [(name, io_base, reg_count)] for attached devices. *)
val devices : t -> (string * int * int) list

(** [find_device t name] is the io window of a named device. *)
val find_device : t -> string -> (int * int) option

(** [tick t] advances every device model by one tick (DMA progress, timer
    countdown, interrupt delivery). *)
val tick : t -> unit

(** Simulated physical memory: a fixed pool of page frames.

    Frames are reference counted so that pages shared between protection
    domains (the memory service's [Shared] allocations) are released only
    when the last mapping goes away. *)

type t

(** [create ~frames ~page_size] makes a memory with [frames] frames of
    [page_size] bytes each. *)
val create : frames:int -> page_size:int -> t

val page_size : t -> int
val total_frames : t -> int
val free_frames : t -> int

(** Raised by {!alloc} when every frame is in use: the simulated memory
    is full. The host's [Out_of_memory] means the host is. *)
exception Out_of_frames

(** [alloc t] takes a free frame (zero-filled, refcount 1).
    Raises {!Out_of_frames} if none is free. *)
val alloc : t -> int

(** [ref_frame t f] increments the refcount of an allocated frame. *)
val ref_frame : t -> int -> unit

(** [release t f] decrements the refcount, returning the frame to the free
    pool when it reaches zero. *)
val release : t -> int -> unit

val is_allocated : t -> int -> bool

(** Raw byte access by physical address ([frame * page_size + offset]).
    Raises [Invalid_argument] on unallocated frames or bad offsets. *)
val read8 : t -> int -> int

val write8 : t -> int -> int -> unit

(** 32-bit little-endian access; the address need not be aligned. A word
    that straddles two frames is accessed byte by byte. *)
val read32 : t -> int -> int

val write32 : t -> int -> int -> unit

(** [read_bytes t addr buf off len] copies [len] bytes at physical
    address [addr] into [buf] from [off]; [write_bytes t addr buf off len]
    copies them the other way. Each works frame by frame: a copy that
    reaches an unallocated frame has copied the frames before it, then
    raises [Invalid_argument] as {!read8} would. *)
val read_bytes : t -> int -> bytes -> int -> int -> unit

val write_bytes : t -> int -> bytes -> int -> int -> unit

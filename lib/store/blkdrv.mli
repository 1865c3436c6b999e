(** Block device driver: bottom of every storage stack.

    Owns the {!Pm_machine.Blkdev} DMA descriptor ring — ring page and
    per-slot data buffers allocated in the driver's domain, registers
    mapped through the I/O-space service — and exports the standard
    ["block"] interface ({!Blockif}) plus a batch ["blkring"] interface
    ([read_many]/[write_many] : list -> list) that keeps up to the whole
    ring in flight. Completion interrupts (line 3) arrive as pop-up
    threads; synchronous waiters poll the descriptor done bit, each
    STATUS read letting the simulated device make progress. *)

(** [create api dom] takes the machine's ["blkdev"] device exclusively,
    programs an 8-slot ring, installs the interrupt pop-up, registers in
    {!Storereg} as [Driver], and returns the instance exporting
    ["block"] and ["blkring"]. *)
val create : Pm_nucleus.Api.t -> Pm_nucleus.Domain.t -> Pm_obj.Instance.t

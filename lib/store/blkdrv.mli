(** Block device driver: bottom of every storage stack.

    Owns the {!Pm_machine.Blkdev} DMA descriptor ring — ring page and
    one data buffer allocated in the driver's domain, registers mapped
    through the I/O-space service — and exports the standard ["block"]
    interface ({!Blockif}). Each op posts one descriptor, naming the
    buffer, and waits for it, so one buffer serves the 8-slot ring. The
    device DMAs a block by the buffer's physical address, kept from
    [create] ({!Pm_machine.Machine.dma}): the driver charges no byte and
    translates no address for it, while the descriptor words are its
    own charged accesses. Completion interrupts (line 3) arrive as
    pop-up threads; synchronous waiters poll the descriptor done bit,
    each STATUS read letting the simulated device make progress. *)

(** [create api dom] takes the machine's ["blkdev"] device exclusively,
    programs an 8-slot ring, installs the interrupt pop-up, registers in
    {!Storereg} as [Driver], and returns the instance exporting
    ["block"]. *)
val create : Pm_nucleus.Api.t -> Pm_nucleus.Domain.t -> Pm_obj.Instance.t

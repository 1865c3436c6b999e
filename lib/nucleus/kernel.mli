(** The Paramecium kernel: boot, protection domains, and the nucleus
    composition.

    Boot creates the simulated machine (with its NIC, timer and console),
    instantiates the four nucleus services, wraps each service in an
    object exporting a small interface, and assembles them into a
    [Static] composition — "the Paramecium kernel is a composition,
    composed of objects that manage interrupts, user contexts, etc." —
    registered under [/nucleus]. Because the service objects live in the
    kernel domain, user-domain components reach them through proxies:
    system calls fall out of the object model.

    Name-space conventions laid down at boot:
    - [/nucleus], [/nucleus/events], [/nucleus/memory],
      [/nucleus/directory], [/nucleus/certification]
    - components are conventionally registered under [/services],
      [/shared] (e.g. [/shared/network]) and [/program]. *)

type t

(** [boot ?cpus ... ()] brings the system up on a machine with [cpus]
    CPUs (default 1), each with its own scheduler ({!Pm_threads.Smp});
    {!run} and {!step} sweep all CPUs with work stealing. Every CPU
    count boots the same way; on one CPU the sweep dispatches in
    exactly the boot scheduler's order. *)
val boot :
  ?costs:Pm_machine.Cost.t ->
  ?cpus:int ->
  root:Pm_secure.Principal.t ->
  unit ->
  t

(** {1 Accessors} *)

val machine : t -> Pm_machine.Machine.t
val clock : t -> Pm_machine.Clock.t

(** The machine's CPUs (the machine itself, seen through
    {!Pm_machine.Cpu}) and the per-CPU schedulers over them. *)
val cpu : t -> Pm_machine.Cpu.t

val smp : t -> Pm_threads.Smp.t

(** Number of CPUs. *)
val cpus : t -> int
val api : t -> Api.t
val events : t -> Events.t
val vmem : t -> Vmem.t
val directory : t -> Directory.t
val certification : t -> Certsvc.t
val tracesvc : t -> Tracesvc.t
val loader : t -> Loader.t
val sched : t -> Pm_threads.Scheduler.t
val kernel_domain : t -> Domain.t
val nic : t -> Pm_machine.Nic.t
val timer : t -> Pm_machine.Timer_dev.t

(** The paging disk: device ["disk"], irq 2, 512 blocks of the page
    size, driven through the synchronous transfer. *)
val disk : t -> Pm_machine.Blkdev.t

(** The store's block device: device ["blkdev"], irq 3, 1024 blocks of
    512 bytes, driven through its descriptor ring. *)
val blkdev : t -> Pm_machine.Blkdev.t

(** {1 Domains} *)

(** [create_domain t ~name ?overrides ()] makes a user protection domain:
    a fresh MMU context plus a view derived from the kernel's root view
    with the given name-space overrides. *)
val create_domain :
  t -> name:string -> ?overrides:(Pm_names.Path.t * int) list -> unit -> Domain.t

(** [destroy_domain t dom] tears a user domain down: every object
    instance living in it is revoked and unregistered from the name
    space; the proxies other domains imported from it are released with
    {!Directory.release}, as an unload releases them (their entry pages
    are freed, and a proxy still held answers [Revoked]); the proxies it
    imported leave the registry and the directory; its pages (their
    entry pages among them), fault call-backs and I/O grants are
    released, its event call-backs removed, and its MMU context deleted.
    The registry is walked by its live entries, so gaps that unloads
    leave in the handle range hide no instance. Raises
    [Invalid_argument] for the kernel domain or a domain already
    destroyed. Threads of the domain are not killed (they are cooperative
    fibers); destroy a domain only once its threads have finished. *)
val destroy_domain : t -> Domain.t -> unit

(** [domains t] lists all domains, kernel first. *)
val domains : t -> Domain.t list

val domain_of_id : t -> int -> Domain.t option

(** {1 Convenience} *)

(** [ctx t dom] is a call context issuing from [dom]. *)
val ctx : t -> Domain.t -> Pm_obj.Call_ctx.t

(** [register_at t path inst] publishes an instance (path given as a
    string for convenience). Raises on conflict. *)
val register_at : t -> string -> Pm_obj.Instance.t -> unit

(** [bind t dom path] imports the object at [path] (string) into [dom]. *)
val bind : t -> Domain.t -> string -> Pm_obj.Instance.t

(** [run t] dispatches ready threads until quiescent. *)
val run : t -> int

(** [step t ?ticks ()] interleaves device ticks with scheduling: each
    tick advances every device model, then sweeps the CPUs for at most
    64 dispatches per CPU, so yield-polling threads cannot starve the
    devices at any CPU count. *)
val step : t -> ?ticks:int -> unit -> unit

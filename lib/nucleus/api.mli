(** The capability bundle handed to component constructors.

    A component sees the nucleus only through this record: the machine
    (for cycle accounting), the four services, the thread scheduler and
    its own domain's view. Everything a loaded component does — binding
    names, allocating pages or I/O space, registering event call-backs —
    goes through here. *)

type t = {
  machine : Pm_machine.Machine.t;
  registry : Pm_obj.Instance.t Pm_obj.Registry.t;
  events : Events.t;
  vmem : Vmem.t;
  directory : Directory.t;
  certification : Certsvc.t;
  sched : Pm_threads.Scheduler.t;
  kernel_domain : Domain.t;
}

(** [ctx api dom] is a call context issuing from [dom]. *)
val ctx : t -> Domain.t -> Pm_obj.Call_ctx.t

(** [bind api dom path] imports the object at [path] into [dom] (through
    [dom]'s view, proxying across domains). A full memory is
    [Error (Directory.No_memory _)], never an exception. *)
val bind :
  t -> Domain.t -> Pm_names.Path.t -> (Pm_obj.Instance.t, Directory.bind_error) result

val bind_exn : t -> Domain.t -> Pm_names.Path.t -> Pm_obj.Instance.t

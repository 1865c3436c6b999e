(** Cross-domain invocation proxies.

    "Importing an object from another protection domain, by means of the
    directory service, causes a proxy to appear. This proxy provides
    exactly the same set of interfaces as the original object, but each
    interface entry will cause a page fault when referenced. Control is
    then transferred to a per page fault handler which will map in
    arguments into the object's protection domain, switch context, and
    invoke the actual method. Return values are handled similarly."

    A proxy is an ordinary {!Pm_obj.Instance.t} living in the importer's
    domain whose every method charges the fault-entry cost, the per-word
    argument/result mapping cost, and the two context switches around the
    real invocation. Each proxy also owns one fault-hooked page in the
    importer's domain — the "interface entry" page the hardware would
    fault on. *)

(** What one bind took: the proxy, its importer, and its fault-hooked
    entry page. {!Directory} keeps it under the target until the
    target's unload, the importer's destruction or a rollback past the
    bind returns it. *)
type t = private {
  instance : Pm_obj.Instance.t;  (** the proxy, in the registry *)
  importer : Domain.t;
  entry : int;  (** the entry page's virtual address in [importer] *)
}

(** [make ~machine ~vmem ~registry ~target ~importer] allocates the
    entry page and builds the proxy instance. Invoking it from any
    domain other than [importer] fails with [Domain_error]; once
    [target] is revoked it answers [Revoked]. Raises {!Vmem.Vmem_error}
    when no frame is free for the entry page, having taken nothing. *)
val make :
  machine:Pm_machine.Machine.t ->
  vmem:Vmem.t ->
  registry:Pm_obj.Instance.t Pm_obj.Registry.t ->
  target:Pm_obj.Instance.t ->
  importer:Domain.t ->
  t

(** [is_proxy inst] recognizes proxy instances. *)
val is_proxy : Pm_obj.Instance.t -> bool

(** Directory service.

    "The directory service implements the name space ... It provides
    functions for registering, unregistering, and binding of objects."
    Binding resolves a name through the caller's view (overrides first),
    dereferences the handle, and — when the object lives in another
    protection domain — materializes (and caches) a {!Proxy}.

    Each proxy's receipt ({!Proxy.t}: the proxy, its importer, its
    entry page) is kept under its target, one per importing domain,
    until {!release} returns it when the target is unloaded,
    {!drop_imports} when the importer is destroyed, or {!rollback} when
    the bind belongs to an aborted transaction or a failed load. *)

type t

type bind_error =
  | Name of Pm_names.Namespace.error
  | Dangling of int  (** the name resolved to a dead handle *)
  | No_memory of string  (** no frame was free for the proxy's entry page *)

val bind_error_to_string : bind_error -> string

val create :
  machine:Pm_machine.Machine.t ->
  vmem:Vmem.t ->
  registry:Pm_obj.Instance.t Pm_obj.Registry.t ->
  ns:Pm_names.Namespace.t ->
  t

val namespace : t -> Pm_names.Namespace.t

(** [register t path inst] publishes an instance under a name. *)
val register :
  t -> Pm_names.Path.t -> Pm_obj.Instance.t -> (unit, Pm_names.Namespace.error) result

val unregister : t -> Pm_names.Path.t -> (unit, Pm_names.Namespace.error) result

(** [replace t path inst] swaps the object behind a name and returns the
    previous instance — the interposition primitive. *)
val replace :
  t ->
  Pm_names.Path.t ->
  Pm_obj.Instance.t ->
  (Pm_obj.Instance.t, bind_error) result

(** [unreplace t path ~agent ~restore] undoes the newest {!replace} of
    [agent] at [path]: [restore] goes back behind the name and the
    matching interposition-log entry is popped, so the log reads as if
    the interposition never happened. The rollback primitive behind
    [System.transact]. *)
val unreplace :
  t ->
  Pm_names.Path.t ->
  agent:Pm_obj.Instance.t ->
  restore:Pm_obj.Instance.t ->
  (unit, bind_error) result

(** [bind t ctx ~view ~domain path] imports the named object into
    [domain]: the instance itself if it already lives there, a cached
    proxy otherwise. A new proxy takes one page in [domain]; when none
    can be had the result is [No_memory] and nothing is taken. *)
val bind :
  t ->
  Pm_obj.Call_ctx.t ->
  view:Pm_names.View.t ->
  domain:Domain.t ->
  Pm_names.Path.t ->
  (Pm_obj.Instance.t, bind_error) result

val bind_exn :
  t ->
  Pm_obj.Call_ctx.t ->
  view:Pm_names.View.t ->
  domain:Domain.t ->
  Pm_names.Path.t ->
  Pm_obj.Instance.t

(** [resolve_handle t h] — "obtain an interface from a given object
    handle" (no proxying; the raw instance). *)
val resolve_handle : t -> int -> Pm_obj.Instance.t option

(** [replacements t] is the interposition log, oldest first: every
    successful {!replace} as [(path, old handle, new handle)].
    Introspection for the composition linter's superset check. *)
val replacements : t -> (Pm_names.Path.t * int * int) list

(** The number of proxies whose receipts are kept. *)
val proxy_count : t -> int

(** [release t target] returns what binding [target] took: each proxy's
    entry page is freed through {!Vmem.free_pages}, and the proxies
    leave the registry and the table. It charges no cycle. A proxy a
    caller still holds answers [Revoked] once [target] is revoked. *)
val release : t -> Pm_obj.Instance.t -> unit

(** [drop_imports t dom] forgets the proxies [dom] imported, taking them
    out of the table and the registry. Their entry pages are left to
    {!Vmem.destroy_domain}, which frees every page of [dom]. *)
val drop_imports : t -> Domain.t -> unit

(** [taken_since t m] is every allocation made since [m] that is still
    live, as {!Vmem.allocated_since} gives it, less the entry pages of
    proxies bound since [m]: those belong to their binds. What a
    component's constructor allocated, when [m] was taken just before
    it ran. *)
val taken_since : t -> Vmem.mark -> (int * int) list

(** [rollback t m] returns everything allocated since [m]: the proxies
    bound since [m] leave the table and the registry, then every
    allocation made since [m] that is still live is freed, in ascending
    [(domain id, vpage)] order. *)
val rollback : t -> Vmem.mark -> unit

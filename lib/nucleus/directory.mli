(** Directory service.

    "The directory service implements the name space ... It provides
    functions for registering, unregistering, and binding of objects."
    Binding resolves a name through the caller's view (overrides first),
    dereferences the handle, and — when the object lives in another
    protection domain — materializes (and caches) a {!Proxy}. *)

type t

type bind_error =
  | Name of Pm_names.Namespace.error
  | Dangling of int  (** the name resolved to a dead handle *)

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
    proxy otherwise. *)
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

(** Name-space views: inheritance plus per-object overrides.

    "The name space is usually inherited from a parent ... Each object,
    however, can provide a set of overrides which allows it to locally
    reconfigure its name space: that is, control the child objects it will
    import." A view is a chain of override tables ending at the shared
    {!Namespace.t}; binding consults the nearest override first, so a
    parent can, e.g., point a child's [/shared/network] at a monitoring
    interposer without affecting anyone else. *)

type t

(** [of_namespace ns] is the root view: no overrides, no parent. *)
val of_namespace : Namespace.t -> t

(** [derive ?overrides parent] makes a child view. *)
val derive : ?overrides:(Path.t * int) list -> t -> t

(** [add_override v path handle] installs or updates a local override. *)
val add_override : t -> Path.t -> int -> unit

(** [remove_override v path] removes a local override (no-op if absent). *)
val remove_override : t -> Path.t -> unit

val overrides : t -> (Path.t * int) list

(** [bind ctx v path] resolves a name through the override chain and then
    the underlying name space, charging name-resolution costs against the
    context's clock. *)
val bind : Pm_obj.Call_ctx.t -> t -> Path.t -> (int, Namespace.error) result

(** [bind_exn ctx v path] raises {!Namespace.Name_error} on failure. *)
val bind_exn : Pm_obj.Call_ctx.t -> t -> Path.t -> int

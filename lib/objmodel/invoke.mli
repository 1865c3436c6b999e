(** Method invocation engine.

    The only sanctioned way to operate on an object: "objects can be
    operated on only through the methods in the interfaces they export".
    Charges the interface-dispatch cost, one hop cost per delegation link
    followed, and validates arguments and result against the method's type
    information. A call through a composition is one dispatch: the
    composition reaches its child with {!forward}. *)

(** [call ctx obj ~iface ~meth args] dispatches a method. *)
val call :
  Call_ctx.t ->
  Instance.t ->
  iface:string ->
  meth:string ->
  Value.t list ->
  (Value.t, Oerror.t) result

(** [forward ctx obj ~iface ~meth args] is {!call} without the dispatch
    charge: the method is resolved on [obj] now, and its delegation hops,
    argument check and result check are the same, but no
    [indirect_call], [Method_invocation] or invoke span is charged. It is
    how a composition's exported method reaches its child
    ({!Composite}): the caller's dispatch of the composition paid for the
    one indirect call a call through it makes. Anything else calls
    {!call}. *)
val forward :
  Call_ctx.t ->
  Instance.t ->
  iface:string ->
  meth:string ->
  Value.t list ->
  (Value.t, Oerror.t) result

(** [fail clock e] logs (at debug level) the tail of [clock]'s flight
    recorder, the failing system's black box, then raises {!Oerror.Error}. *)
val fail : Pm_machine.Clock.t -> Oerror.t -> 'a

(** [call_exn] is [call] but {!fail}s with the context's clock. *)
val call_exn :
  Call_ctx.t -> Instance.t -> iface:string -> meth:string -> Value.t list -> Value.t

(** Interposing agents.

    "Building an interposing agent for a network device,
    [/shared/network], consists of building an interposing object (i.e.,
    one that exports a superset of the original object's interfaces,
    reimplements those methods it sees fit and forwards the others to the
    original object) and replace the object handle in the name space."

    {!wrap} builds the interposing object: every interface of the target
    is re-exported with forwarding methods, an optional call hook
    observes traffic, optional overrides reimplement chosen methods, and a
    ["monitor"] interface (the superset part) exposes counters. {!attach}
    swaps it into the name space. *)

(** Called before each forwarded invocation. *)
type call_hook = iface:string -> meth:string -> Pm_obj.Value.t list -> unit

(** [wrap api dom ~target ?on_call ?overrides ()] builds the
    agent in [dom]. [overrides] entries are
    [(iface, method, replacement_impl)]; overridden methods do not
    forward (the replacement may itself invoke [target]). The ["monitor"]
    interface exports [calls() -> int], [blob_bytes() -> int] and
    [reset() -> unit]. *)
val wrap :
  Pm_nucleus.Api.t ->
  Pm_nucleus.Domain.t ->
  target:Pm_obj.Instance.t ->
  ?on_call:call_hook ->
  ?overrides:(string * string * Pm_obj.Iface.impl) list ->
  unit ->
  Pm_obj.Instance.t

(** [attach api ~path ~agent] replaces the handle at [path] with the
    agent, returning the previous instance. All future binds resolve to
    the agent.

    The paper's superset rule is enforced: the agent must re-export
    every interface of the instance currently at [path] with compatible
    method signatures ({!Pm_check.Subsume}); a non-superset agent raises
    {!Pm_obj.Oerror.Error} with [Not_superset] before anything is
    swapped. Path errors still come back as [Error _]. *)
val attach :
  Pm_nucleus.Api.t ->
  path:string ->
  agent:Pm_obj.Instance.t ->
  (Pm_obj.Instance.t, string) result

(** [packet_monitor api dom ~target] is a ready-made monitoring agent for
    a ["netdev"] or ["stack"] object: counts calls and the bytes of every
    blob argument that passes through. *)
val packet_monitor :
  Pm_nucleus.Api.t -> Pm_nucleus.Domain.t -> target:Pm_obj.Instance.t -> Pm_obj.Instance.t

(** The trace interposer: an interposing agent (built with
    {!Pm_components.Interpose}) that runs every forwarded method call
    inside one journal span ({!Pm_machine.Clock.span}, layer ["agent"]).

    Installation follows the paper's recipe for interposition — replace
    the name-space entry with a superset object — so clients that re-bind
    the name transparently go through the agent; [remove] swaps the
    original binding back. *)

(** [trace_agent api dom ~target] wraps [target] in a tracing interposer
    owned by [dom]. The agent is transparent: arguments, results and
    errors pass through byte-identically; when tracing is enabled each
    call adds one span (charging one [mem_write]). *)
val trace_agent :
  Pm_nucleus.Api.t ->
  Pm_nucleus.Domain.t ->
  target:Pm_obj.Instance.t ->
  Pm_obj.Instance.t

(** [interpose api ~path] builds a trace agent over the instance bound at
    [path] and swaps it into the name space. Returns
    [(agent, original)] for a later {!remove}. *)
val interpose :
  Pm_nucleus.Api.t ->
  path:string ->
  (Pm_obj.Instance.t * Pm_obj.Instance.t, string) result

(** [remove api ~path ~agent ~original] restores [original] at [path].
    Fails (and leaves the name space unchanged) if the entry no longer
    holds [agent]. *)
val remove :
  Pm_nucleus.Api.t ->
  path:string ->
  agent:Pm_obj.Instance.t ->
  original:Pm_obj.Instance.t ->
  (unit, string) result

(** [installer api] packages {!interpose}/{!remove} for injection into
    {!Pm_nucleus.Tracesvc}, which sits below this library in the
    dependency order. *)
val installer : Pm_nucleus.Api.t -> Pm_nucleus.Tracesvc.interposer

(** The query service: causal tracing and time-travel queries exported
    as the eighth boot-time nucleus object, [/nucleus/query].

    Folds the live journal through {!Pm_query.Query}: per-request span
    trees, top-K slowest, per-layer attribution, and state-at-cycle
    answers over the always-complete structural archive. *)

(** [service_object machine registry kdom] builds the kernel-domain service
    instance exporting the [query] interface:
    [snapshot() : str] (one line per traced request),
    [request(rid) : str] (the span tree),
    [slowest(k) : str], [layers() : str] (per-layer totals),
    [frame_holders(frame, at) : list int],
    [bound_at(path, at) : int], [owner_of(name, at) : int].
    Span queries fault by name on an incomplete (non-[Full]) history;
    state-at-cycle queries work in any mode. *)
val service_object :
  Pm_machine.Machine.t ->
  Pm_obj.Instance.t Pm_obj.Registry.t ->
  Domain.t ->
  Pm_obj.Instance.t

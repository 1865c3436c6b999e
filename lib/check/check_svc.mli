(** /nucleus/check — the composition linter as a nucleus service.

    Shaped like [/nucleus/trace]: a kernel-domain instance reachable
    from any domain through the namespace (cross-domain via the usual
    proxy). Every run leaves a [Check] record in the flight recorder
    carrying the error count, so a failing boot-time lint shows up in
    the black box next to the faults it predicts.

    The exported [check] interface:
    [run() : int] (runs the linter, returns the error count),
    [report() : str] (the last run, rendered),
    [explain(rule) : str], and [rules() : str]. *)

type t

(** [create ~machine ~directory ~events ?domains ()] — [domains]
    (usually [Kernel.domains]) enables the shadowing rule; the
    page-hygiene rule always runs, against the clock journal. *)
val create :
  machine:Pm_machine.Machine.t ->
  directory:Pm_nucleus.Directory.t ->
  events:Pm_nucleus.Events.t ->
  ?domains:(unit -> Pm_nucleus.Domain.t list) ->
  unit ->
  t

(** [run t] executes the whole-system pass, stores and returns the
    report, and records it in the flight recorder. *)
val run : t -> Lint.report

(** [runs t] counts completed lint passes. *)
val runs : t -> int

val service_object :
  t -> Pm_obj.Instance.t Pm_obj.Registry.t -> Pm_nucleus.Domain.t -> Pm_obj.Instance.t

(** Whole-system composition linter.

    A pass over the live object graph checking the properties the object
    model promises but does not enforce at assembly time:

    - {b superset}: every recorded {!Pm_nucleus.Directory.replace}
      installed an object whose interfaces subsume the displaced
      object's ({!Subsume}), re-checked against the live instances;
    - {b dangling}: every namespace binding resolves to a live,
      unrevoked instance;
    - {b dead-handler}: every registered event call-back belongs to a
      live domain;
    - {b spsc}: each channel has been fed from at most one MMU context
      (the single-producer half of the SPSC contract — the receive side
      is legitimately plural: inline drains and pop-up consumers run in
      different contexts);
    - {b wait-cycle}: domains blocked on channel operations do not form
      a cycle of mutual waiting (deadlock detection over
      recv-waits-for-producer / send-waits-for-consumer edges);
    - {b store-order}: every write-back cache in the storage registry
      sits above (never below) its log or partition — a cache stacked
      above an append-only log replays evictions in LRU order, and a
      partition windowing a cache hides dirty blocks behind the address
      translation;
    - {b store-dangling}: no [/store] endpoint is left dangling after a
      detach — an entry still bound after it detached, or bound to a
      revoked component, faults the next client;
    - {b page-hygiene} (when a [journal] is supplied): every page shared
      across domains was unshared before either party went down —
      derived by replaying the journal's structural history, so it works
      on recorded runs too;
    - {b shadowing} (when [domains] is supplied): no domain's view
      override bypasses a live interposition by resolving the interposed
      name to a different handle.

    The pass reads existing bookkeeping with plain OCaml reads and
    charges no simulated cycles. *)

type severity = Error | Warning

type finding = {
  rule : string;
  subject : string;
  detail : string;
  severity : severity;
}

val severity_to_string : severity -> string
val finding_to_string : finding -> string

type report = { findings : finding list; rules_run : int }

(** The rule names, in the order they run. *)
val rules : string list

(** [run ~machine ~directory ~events ?journal ?domains ()] runs the
    pass; the page-hygiene rule only runs when [journal] is given and
    the shadowing rule only when [domains] is, and [rules_run] counts
    what actually ran. *)
val run :
  machine:Pm_machine.Machine.t ->
  directory:Pm_nucleus.Directory.t ->
  events:Pm_nucleus.Events.t ->
  ?journal:Pm_journal.Journal.t ->
  ?domains:(unit -> Pm_nucleus.Domain.t list) ->
  unit ->
  report

(** [history events] is the history-only subset (page-hygiene) over a
    bare event stream — e.g. one imported from a replayed recording —
    with no live object graph. *)
val history : Pm_journal.Journal.event list -> finding list

(** The [Error]-severity findings of a report. *)
val errors : report -> finding list

val report_to_string : report -> string

(** [report_to_json report] renders the whole report as one line of
    JSON — [{"rules_run":n,"errors":n,"findings":[{"rule":…,
    "severity":…,"subject":…,"detail":…},…]}] — for CI and other
    tooling ([pm_lint --json]). Strings are escaped; the schema is the
    [finding] record, field for field. *)
val report_to_json : report -> string

(** One finding as a JSON object (the elements of [report_to_json]'s
    [findings] array). *)
val finding_to_json : finding -> string

(** [explain rule] is a one-sentence statement of what a rule checks. *)
val explain : string -> string

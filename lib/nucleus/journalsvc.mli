(** The journal service: the system history exported as the seventh
    boot-time nucleus object, [/nucleus/journal].

    A thin object wrapper over the clock's {!Pm_journal.Journal} — mode
    control ([mode], [set_mode]), inspection ([snapshot], [stats],
    [complete]), user annotations ([mark]) and the replay export
    ([export]). Like every nucleus service it can be bound cross-domain
    (through a proxy) and interposed on. *)

(** [service_object machine registry kdom] builds the kernel-domain service
    instance exporting the [journal] interface:
    [mode() : str], [set_mode("tail"|"full")],
    [snapshot(n) : str] (full text when [n <= 0], last [n] events
    otherwise), [mark(label) : int] (the mark's seq),
    [export() : str] (the versioned replay stream),
    [stats() : str], and [complete() : bool]. *)
val service_object :
  Pm_machine.Machine.t ->
  Pm_obj.Instance.t Pm_obj.Registry.t ->
  Domain.t ->
  Pm_obj.Instance.t

(** The trace service: kernel-wide tracing and metrics exported as the
    fifth boot-time nucleus object, [/nucleus/trace].

    The service drives the clock's {!Pm_obs.Obs} sink ([start], [stop],
    [reset], [snapshot], [histogram]) and manages trace interposers over
    name-space entries ([interpose], [uninterpose]). Building an
    interposer needs the component toolbox, which layers {e above} this
    library — so the factory is injected by system assembly via
    {!set_interposer} (see [Pm_obs_agent.Obs_agent.installer]). *)

type installed = { agent : Pm_obj.Instance.t; original : Pm_obj.Instance.t }

type interposer = {
  install : string -> (installed, string) result;
  uninstall : string -> installed -> (unit, string) result;
}

type t

val create : Pm_machine.Machine.t -> t

(** [set_interposer t i] wires the agent factory; until it is called,
    the [interpose]/[uninterpose] methods fail with a [Fault]. *)
val set_interposer : t -> interposer -> unit

(** [interpose t path] installs a trace agent over the entry at [path]
    and returns it. *)
val interpose : t -> string -> (Pm_obj.Instance.t, string) result

(** [uninterpose t path] restores the original binding at [path]. *)
val uninterpose : t -> string -> (unit, string) result

(** [service_object t registry kdom] builds the kernel-domain service
    instance exporting the [trace] interface:
    [start()], [stop()], [enabled() : bool],
    [reset()] (clears the metrics, and with them the accounting view
    over them; never the journal),
    [snapshot() : str] (the journal's span view plus the metrics, as
    text),
    [histogram(domain, name) : str],
    [interpose(path) : int] (the agent's handle), and
    [uninterpose(path)]. *)
val service_object :
  t -> Pm_obj.Instance.t Pm_obj.Registry.t -> Domain.t -> Pm_obj.Instance.t

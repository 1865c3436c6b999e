(** The [/stats] namespace: per-domain accounting exported as ordinary
    named objects. Each domain's row is {!Pm_obs.Obs.account} — a view
    over the span metrics — plus the pages {!Pm_nucleus.Vmem} says it
    holds.

    [/stats/kernel] is the kernel-wide service: the [snapshot] exporter
    (text, reusing {!Pm_obs.Metrics} for the keyed data) and the
    always-on flight-recorder dump. {!publish} registers one directory
    object per live user domain at [/stats/<name>] (iface
    ["stats.domain"]: [read] and [value field]). The kernel object also
    exports ["stats.domain"] for the kernel domain itself.

    Because these are plain instances in the name space, a user domain
    reads them through the normal proxy path, and a monitor agent can
    interpose on them like on any other object. *)

type t

(** [create api ~domains ()] builds the service; [domains] enumerates
    the kernel's domains (typically [Kernel.domains]). The caller
    registers {!kernel_object} at [/stats/kernel]. *)
val create : Pm_nucleus.Api.t -> domains:(unit -> Pm_nucleus.Domain.t list) -> unit -> t

val kernel_object : t -> Pm_obj.Instance.t

(** Reconcile [/stats] with the live domains. First the object of each
    domain torn down since the last call leaves its path and the
    registry, so its name is free again. Then every live user domain
    that has no object gets one; returns how many were newly
    registered. Each domain's object is built once; when another domain
    holds the name it goes to [/stats/<name>.<id>], and when that is
    taken too it is dropped. [System.new_domain] calls this. *)
val publish : t -> int

(** The paths {!publish} holds: one per live user domain that has an
    object. *)
val published : t -> string list

(** The text the [snapshot] method returns. *)
val snapshot_text : t -> string

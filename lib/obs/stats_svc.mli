(** The [/stats] namespace: per-domain accounting exported as ordinary
    named objects. Each domain's row is {!Pm_obs.Obs.account} — a view
    over the span metrics — plus the pages {!Pm_nucleus.Vmem} says it
    holds.

    [/stats/kernel] is the kernel-wide service — [snapshot] and [diff]
    exporters (text, reusing {!Pm_obs.Metrics} for the keyed data), the
    always-on flight-recorder dump, and [publish] which registers one
    directory object per live user domain at [/stats/<name>] (iface
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

(** Register [/stats/<name>] objects for live user domains that have
    none yet; returns how many were newly registered. Each domain's
    object is built once; when another domain holds the name it goes to
    [/stats/<name>.<id>], and when that is taken too it is dropped. *)
val publish : t -> int

(** Paths registered so far by {!publish}. *)
val published : t -> string list

(** Reset the diff baseline to the current accounting state. A diff
    taken after an [Obs.reset] that followed the mark counts from the
    reset instead: the marked counts no longer exist. *)
val mark : t -> unit

(** {2 Direct exporters} — the text the [snapshot] and [diff] methods
    return. *)

val snapshot_text : t -> string
val diff_text : t -> string

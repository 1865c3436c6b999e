(** Interface subsumption — the paper's interposition rule, checkable.

    "Replacing a name-space entry is only allowed with a superset
    object": an interposing agent must export every interface of the
    object it replaces, method for method, with matching arity and
    types (an agent-side {!Pm_obj.Vtype.Tany} matches any wrapped type,
    which is what generic forwarders declare). Extra agent interfaces
    are allowed — they are the point.

    Used in two places: {!Pm_components.Interpose.attach} enforces it at
    interposition time (raising [Oerror.Not_superset]), and the
    composition linter re-checks every recorded replacement over the
    live object graph. *)

(** [check ~wrapped ~agent] is [Ok ()] when [agent]'s interfaces subsume
    [wrapped]'s, or [Error reason] naming the first mismatch. *)
val check :
  wrapped:Pm_obj.Iface.t list -> agent:Pm_obj.Iface.t list -> (unit, string) result

(** [check_instances ~wrapped ~agent] applies {!check} to the instances'
    exported interface lists. *)
val check_instances :
  wrapped:Pm_obj.Instance.t -> agent:Pm_obj.Instance.t -> (unit, string) result

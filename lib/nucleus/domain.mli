(** Protection domains.

    The nucleus's unit of granularity: every service "uses a protection
    domain or context as its unit of granularity". A domain couples an MMU
    context with a name-space view (inherited from the domain that created
    it) and a kind — exactly one domain is the kernel's. Its accounting
    is a view over the metrics keyed by its id
    ({!Pm_obs.Obs.account}). *)

type kind = Kernel | User

type t = {
  id : int;  (** equals the MMU context id *)
  name : string;
  kind : kind;
  view : Pm_names.View.t;  (** the domain's name-space view *)
  mutable alive : bool;
}

val is_kernel : t -> bool
val pp : Format.formatter -> t -> unit

(** [make ~id ~name ~kind ~view ()] — used by {!Kernel}; components
    receive domains, they do not forge them. *)
val make : id:int -> name:string -> kind:kind -> view:Pm_names.View.t -> unit -> t

(** Compositions: objects composed of other object instances.

    "Composition is to objects what objects are to data: an encapsulation
    technique" — the Paramecium kernel itself is one. A composition is an
    ordinary {!Instance.t} whose exported interfaces forward to its
    children, so composition nests recursively.

    A [Static] composition models link-time assembly (the resident part of
    the kernel): its children cannot be replaced. A [Dynamic] composition
    is assembled at run time and allows children to be swapped for new
    instances, re-wiring the exported interfaces. *)

type mode = Static | Dynamic

(** One exported interface: child [child]'s interface [iface], re-exported
    under [as_name]. *)
type export = { as_name : string; child : string; iface : string }

type t

val make :
  Instance.t Registry.t ->
  class_name:string ->
  domain:int ->
  mode:mode ->
  children:(string * Instance.t) list ->
  exports:export list ->
  t

(** [instance t] is the composition seen as an ordinary object. *)
val instance : t -> Instance.t

val child : t -> string -> Instance.t option
val children : t -> (string * Instance.t) list

(** [replace_child t name inst] swaps a child of a [Dynamic] composition;
    the new instance must export every interface the composition forwards
    to that child. Raises [Invalid_argument] on a [Static] composition, an
    unknown child, or a child missing a forwarded interface. *)
val replace_child : t -> string -> Instance.t -> unit

(** [add_child t name inst] extends a [Dynamic] composition. *)
val add_child : t -> string -> Instance.t -> unit

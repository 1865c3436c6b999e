(** Instance-name paths, e.g. ["/shared/network"].

    A path is a non-empty sequence of segments; segments contain only
    letters, digits, and ['_' '.' '-']. The root itself is the empty
    path. *)

type t

val root : t

(** [of_string s] parses an absolute path like ["/a/b"]. Raises
    [Invalid_argument] on malformed input. *)
val of_string : string -> t

val to_string : t -> string

val segments : t -> string list

(** [child p seg] appends one segment (validated). *)
val child : t -> string -> t

(** [parent p] drops the last segment; [None] for the root. *)
val parent : t -> t option

(** [basename p] is the last segment; [None] for the root. *)
val basename : t -> string option

val length : t -> int
val equal : t -> t -> bool

(** [is_prefix p q] is true when [p] is a (possibly equal) prefix of [q]. *)
val is_prefix : t -> t -> bool

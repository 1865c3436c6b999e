(** Dynamic values passed through interface methods.

    The software architecture is programming-language independent, so
    method arguments and results use a universal value type rather than
    OCaml's static types. Proxies, interposing agents and monitors can
    then forward any method generically. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Blob of bytes  (** bulk data, e.g. a packet *)
  | Pair of t * t
  | List of t list
  | Handle of int  (** reference to another object instance *)

val equal : t -> t -> bool

(** [words v] is the size of [v] in 32-bit words when marshalled across a
    protection domain; drives the per-word argument-mapping cost of
    cross-domain calls. *)
val words : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Convenience accessors; raise [Invalid_argument] on the wrong head. *)
val to_int : t -> int

val to_str : t -> string

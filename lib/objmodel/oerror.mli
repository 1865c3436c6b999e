(** Errors produced by object invocation and binding. *)

type t =
  | No_such_interface of string
  | No_such_method of string * string  (** interface, method *)
  | Type_error of string
  | Domain_error of string  (** caller may not reach the target domain *)
  | Revoked  (** the instance has been revoked/unloaded *)
  | Fault of string  (** component-level failure *)
  | Not_superset of string
      (** an interposing agent does not implement a superset of the
          object it replaces (the name-space interposition rule) *)

exception Error of t

val to_string : t -> string

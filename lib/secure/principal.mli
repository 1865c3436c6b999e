(** Principals: named holders of public keys.

    Following the Taos authentication work the paper builds on, every
    party in the certification architecture — the certification authority,
    its delegates (provers, trusted compilers, administrators, graduate
    students), component authors — is a principal identified by its public
    key. *)

(** [id] is the key's fingerprint, computed once by {!make}. *)
type t = private { name : string; key : Pm_crypto.Rsa.public; id : string }

val make : string -> Pm_crypto.Rsa.public -> t

(** [id t] is the key fingerprint; two principals with the same key are
    the same authority regardless of display name. *)
val id : t -> string

val equal : t -> t -> bool

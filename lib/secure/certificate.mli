(** Component certificates.

    "In our system certificates include a message digest of the component
    so that it is impossible to modify the component after it has been
    certified." A certificate binds (component name, code digest, signer,
    issue time) under the signer's RSA key. *)

type t = {
  component : string;
  digest : string;  (** raw SHA-256 of the component code *)
  signer : Principal.t;
  issued_at : int;  (** logical timestamp *)
  signature : string;
}

(** [issue key ~signer ~component ~digest ~issued_at] signs a certificate.
    [key] must be [signer]'s key pair. *)
val issue :
  Pm_crypto.Rsa.keypair ->
  signer:Principal.t ->
  component:string ->
  digest:string ->
  issued_at:int ->
  t

(** [well_signed t] checks the signature under the embedded signer key.
    It does NOT establish that the signer has authority — that is
    {!Validator}'s job. *)
val well_signed : t -> bool

(** [matches_code t code] recomputes the digest of [code] and compares. *)
val matches_code : t -> string -> bool

(** Certification service.

    "Objects can be associated with a certificate that is validated by the
    certification service before mapping it into a protection domain. The
    certification service uses a message digest function, public key
    cryptography, and a trusted certification agent to validate
    credentials."

    This wraps the pure {!Pm_secure.Validator} with load-time cost
    accounting: digesting the component's code charges per byte, and each
    signature the validator checks charges one public-key verification.
    These are the one-off costs that certification trades against
    per-access sandboxing (experiments E4/E5). *)

type t

val create : Pm_machine.Machine.t -> root:Pm_secure.Principal.t -> t

val root : t -> Pm_secure.Principal.t

(** [add_grant t g] teaches the kernel a delegation statement. *)
val add_grant : t -> Pm_secure.Delegation.t -> unit

(** [revoke t principal_id] bars a principal. *)
val revoke : t -> string -> unit

(** [validate t cert ~code] runs the full load-time check. It charges
    [Cost.digest_byte] per byte of [code], then one [Cost.sig_verify]
    for each signature the validator checked on this call, whether the
    result is valid or not: the certificate's once the digest matches,
    and a delegation grant's only the first time this kernel reaches it.
    A kernel's first load signed by one of the authority's delegates
    therefore pays two checks, a later load signed by the same delegate
    one, and a tampered image none.
    Grant expiry is judged against the machine clock just after the
    digest charge. *)
val validate : t -> Pm_secure.Certificate.t -> code:string -> Pm_secure.Validator.decision

val validations : t -> int
val failures : t -> int

(** [verify t ~code] runs the {!Pm_check.Verify} bytecode verifier over
    the component's object code — the third trust mechanism beside
    signature certification and SFI sandboxing. Charges
    [Cost.verify_instr] cycles per decoded instruction (the one-off
    analysis, analogous to the digest's per-byte charge); no signature
    is involved. [Ok] carries the proven affine fuel bound (what the
    loader records and the run path meters against); [Error] carries
    the decode failure or the verifier's rejection, rendered. *)
val verify : t -> code:string -> (Pm_check.Verify.fuel_bound, string) result

(** Successful / failed bytecode verifications since creation. *)
val verifications : t -> int

val verify_failures : t -> int

(** Speaks-for delegation statements (after Lampson et al. / Taos).

    A grant signed by principal [grantor] states that [delegate] speaks
    for the grantor within [scope] (here always certification). Chains of
    grants let the certification authority hand its powers to
    subordinates, which may re-delegate. *)

type t = {
  grantor : Principal.t;
  delegate : Principal.t;
  scope : string;
  expires : int option;  (** logical time; [None] = never *)
  signature : string;
}

(** [grant key ~grantor ~delegate ~scope ?expires ()] signs a delegation;
    [key] must be [grantor]'s key pair. *)
val grant :
  Pm_crypto.Rsa.keypair ->
  grantor:Principal.t ->
  delegate:Principal.t ->
  scope:string ->
  ?expires:int ->
  unit ->
  t

(** [well_signed t] verifies the grantor's signature. *)
val well_signed : t -> bool

(** [live t ~now] is true when the grant has not expired. *)
val live : t -> now:int -> bool

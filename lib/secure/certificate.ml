module Sha256 = Pm_crypto.Sha256
module Rsa = Pm_crypto.Rsa

type t = {
  component : string;
  digest : string;
  signer : Principal.t;
  issued_at : int;
  signature : string;
}

(* Canonical byte string covered by the signature. Length-prefixed fields
   prevent splicing attacks between adjacent fields. *)
let to_be_signed ~component ~digest ~signer_id ~issued_at =
  let field s = Printf.sprintf "%d:%s" (String.length s) s in
  Sha256.digest
    (String.concat ";"
       [ "pm-cert-v1"; field component; field digest; field signer_id;
         field (string_of_int issued_at) ])

let issue key ~signer ~component ~digest ~issued_at =
  let tbs = to_be_signed ~component ~digest ~signer_id:(Principal.id signer) ~issued_at in
  { component; digest; signer; issued_at; signature = Rsa.sign key tbs }

let well_signed t =
  let tbs =
    to_be_signed ~component:t.component ~digest:t.digest
      ~signer_id:(Principal.id t.signer) ~issued_at:t.issued_at
  in
  Rsa.verify t.signer.Principal.key ~digest:tbs ~signature:t.signature

let matches_code t code = String.equal (Sha256.digest code) t.digest

module Sha256 = Pm_crypto.Sha256
module Rsa = Pm_crypto.Rsa

type t = {
  grantor : Principal.t;
  delegate : Principal.t;
  scope : string;
  expires : int option;
  signature : string;
}

let to_be_signed ~grantor_id ~delegate_id ~scope ~expires =
  let field s = Printf.sprintf "%d:%s" (String.length s) s in
  Sha256.digest
    (String.concat ";"
       [ "pm-grant-v1"; field grantor_id; field delegate_id; field scope;
         field (match expires with None -> "never" | Some e -> string_of_int e) ])

let grant key ~grantor ~delegate ~scope ?expires () =
  let tbs =
    to_be_signed ~grantor_id:(Principal.id grantor)
      ~delegate_id:(Principal.id delegate) ~scope ~expires
  in
  { grantor; delegate; scope; expires; signature = Rsa.sign key tbs }

let well_signed t =
  let tbs =
    to_be_signed ~grantor_id:(Principal.id t.grantor)
      ~delegate_id:(Principal.id t.delegate) ~scope:t.scope ~expires:t.expires
  in
  Rsa.verify t.grantor.Principal.key ~digest:tbs ~signature:t.signature

let live t ~now = match t.expires with None -> true | Some e -> now < e

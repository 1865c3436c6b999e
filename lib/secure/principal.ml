type t = { name : string; key : Pm_crypto.Rsa.public; id : string }

let make name key = { name; key; id = Pm_crypto.Rsa.fingerprint key }

let id t = t.id

let equal a b = String.equal a.id b.id

let pp fmt t = Format.fprintf fmt "%s<%s>" t.name t.id

let synthesize ~name ~size =
  if size < 0 then invalid_arg "Codegen.synthesize: negative size";
  (* expand a seed digest into [size] bytes, counter-mode style: block i
     is the digest of "name#i" *)
  let code = Bytes.create size in
  let block = ref 0 in
  while !block * 32 < size do
    let at = !block * 32 in
    let digest = Pm_crypto.Sha256.digest (name ^ "#" ^ string_of_int !block) in
    Bytes.blit_string digest 0 code at (Stdlib.min 32 (size - at));
    incr block
  done;
  Bytes.unsafe_to_string code

let tamper code ~at =
  if at < 0 || at >= String.length code then invalid_arg "Codegen.tamper: out of range";
  String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor 1) else c) code

(* FIPS 180-4 SHA-256. 32-bit words are kept in OCaml ints masked to
   32 bits, which is exact on a 63-bit platform and avoids Int32 boxing. *)

let m32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  mutable finalized : bool;
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    finalized = false;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land m32

let w = Array.make 64 0

let compress h block off =
  for t = 0 to 15 do
    let i = off + (t * 4) in
    w.(t) <-
      (Char.code (Bytes.get block i) lsl 24)
      lor (Char.code (Bytes.get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.get block (i + 2)) lsl 8)
      lor Char.code (Bytes.get block (i + 3))
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land m32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land m32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

let update ctx s =
  if ctx.finalized then invalid_arg "Sha256.update: context already finalized";
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* top up a partial block first *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = Stdlib.min need len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* full blocks straight from the input *)
  let block = Bytes.create 64 in
  while len - !pos >= 64 do
    Bytes.blit_string s !pos block 0 64;
    compress ctx.h block 0;
    pos := !pos + 64
  done;
  (* stash the tail *)
  let tail = len - !pos in
  if tail > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 tail;
    ctx.buf_len <- tail
  end

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finalized <- true;
  let bit_len = ctx.total * 8 in
  (* padding: 0x80, zeros, 64-bit big-endian length *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i) (Char.chr ((bit_len lsr ((7 - i) * 8)) land 0xff))
  done;
  (* absorb the padding through the normal path *)
  ctx.finalized <- false;
  update ctx (Bytes.to_string pad);
  ctx.finalized <- true;
  assert (ctx.buf_len = 0);
  String.init 32 (fun i ->
      let word = ctx.h.(i / 4) in
      Char.chr ((word lsr ((3 - (i mod 4)) * 8)) land 0xff))

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let to_hex raw =
  let buf = Buffer.create (String.length raw * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents buf

let hex_digest s = to_hex (digest s)

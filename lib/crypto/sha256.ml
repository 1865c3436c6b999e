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

(* A 32-bit word twice over, in bits 0-31 and again from bit 32 (the
   63-bit int drops the copy's top bit). Bits [n, n + 32) of [twice x]
   are then x rotated right by n, for every n <= 30 that SHA-256 uses, so
   one shift makes a rotation. The bits above the 32nd are left in, and
   so are the round's T1 and T2: each is summed into a word that is
   masked before it is shifted right, and the low 32 bits of sums and
   xors do not depend on the bits above them. *)
let twice x = x lor (x lsl 32)

(* The message schedule. Every [compress] writes all 64 words before it
   reads one, so no value carries from one call to the next. *)
let w = Array.make 64 0

(* Absorb the 64-byte block at [off] of [block], read in place. The
   reads are unchecked: every caller guarantees [off + 64 <= length]. *)
let compress h block off =
  for t = 0 to 15 do
    let i = off + (t * 4) in
    w.(t) <-
      (Char.code (Bytes.unsafe_get block i) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (i + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (i + 3))
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let xx = twice x and yy = twice y in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ee = twice !e and aa = twice !a in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + k.(t) + w.(t) in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = s0 + maj in
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
  (* full blocks read in place; [compress] only reads its block *)
  let input = Bytes.unsafe_of_string s in
  while len - !pos >= 64 do
    compress ctx.h input !pos;
    pos := !pos + 64
  done;
  (* stash the tail *)
  let tail = len - !pos in
  if tail > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 tail;
    ctx.buf_len <- tail
  end

(* Padding is 0x80, zeros, then the message's bit length as a 64-bit
   big-endian word in the block's last 8 bytes. It goes into the block
   buffer after the leftover bytes: one block, or two when 56 or more
   are left over and the length no longer fits behind them. *)
let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finalized <- true;
  let buf = ctx.buf and used = ctx.buf_len in
  Bytes.set buf used '\x80';
  if used >= 56 then begin
    Bytes.fill buf (used + 1) (63 - used) '\000';
    compress ctx.h buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (used + 1) (55 - used) '\000';
  let bit_len = ctx.total * 8 in
  for i = 0 to 7 do
    Bytes.set buf (56 + i) (Char.unsafe_chr ((bit_len lsr ((7 - i) * 8)) land 0xff))
  done;
  compress ctx.h buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let word = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.unsafe_chr (word lsr 24));
    Bytes.set out ((4 * i) + 1) (Char.unsafe_chr ((word lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.unsafe_chr ((word lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.unsafe_chr (word land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let to_hex raw =
  let buf = Buffer.create (String.length raw * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents buf

let hex_digest s = to_hex (digest s)

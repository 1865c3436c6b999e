(* SplitMix64 (Steele, Lea, Flood 2014). State is a single 64-bit counter;
   output is a bijective finalizer of the state, so distinct seeds give
   well-separated streams. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let copy t = { state = t.state }

module State = struct
  let get t = t.state
  let set t s = t.state <- s
end

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next64 t in
  { state = mix seed }

let bits t n =
  if n < 0 || n > 62 then invalid_arg "Prng.bits: need 0 <= n <= 62";
  if n = 0 then 0
  else begin
    let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
    v land ((1 lsl n) - 1)
  end

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* rejection sampling for uniformity *)
  let nbits =
    let rec go b n = if b = 0 then n else go (b lsr 1) (n + 1) in
    go (bound - 1) 0
  in
  if nbits = 0 then 0
  else begin
    let rec draw () =
      let v = bits t nbits in
      if v < bound then v else draw ()
    in
    draw ()
  end

let float t = float_of_int (bits t 53) /. 9007199254740992.0 (* 2^53 *)

let bytes t n =
  if n < 0 then invalid_arg "Prng.bytes: negative length";
  String.init n (fun _ -> Char.chr (bits t 8))

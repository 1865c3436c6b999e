(* Causal trace context: a compact request id minted at ingress and
   carried — ambiently, and inside the wire formats — through every
   layer a request crosses.

   The simulated machine is single-threaded and deterministic, so the
   ambient current-request register is just a ref: whoever last parsed
   a traced wire message owns the scope until the next parse
   re-establishes it. Sticky on purpose: deliveries happen
   asynchronously inside Kernel.step, after the sender's stack frame is
   gone, and the ambient id is what connects them.

   Everything here is plain OCaml stores — no Clock.advance, no
   Call_ctx.access. With tracing off, [current] is pinned to 0 and
   call sites skip their extra work entirely, so a traced build is
   byte- and cycle-identical to an untraced one until [set_enabled
   true] flips it. *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let next_rid = ref 0
let ambient = ref 0

(* Request ids start at 1; 0 means "no request" everywhere. *)
let mint () =
  incr next_rid;
  !next_rid

let current () = if !enabled_flag then !ambient else 0
let set_current rid = ambient := rid
let clear () = ambient := 0

(* The rid field every traced wire format carries after its fixed
   header: 4 bytes, big-endian, present only with tracing on. The
   caller charges nothing for it — tracing adds zero simulated cycles —
   and tracing flips only between runs, so both sides always agree on
   the format. *)
let rid_len () = if !enabled_flag then 4 else 0

let write_rid b off =
  if !enabled_flag then Bytes.set_int32_be b off (Int32.of_int !ambient)

let read_rid b off =
  if !enabled_flag then
    ambient := Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff

(* Deterministic replay needs deterministic rids: the replay harness
   calls this at the top of every capture, like Journal.set_default_mode. *)
let reset () =
  next_rid := 0;
  ambient := 0

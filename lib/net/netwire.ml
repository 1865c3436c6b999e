module Call_ctx = Pm_obj.Call_ctx
module Wire = Pm_components.Wire
module Trace = Pm_journal.Trace

let check16 label v =
  if v < 0 || v > 0xffff then
    invalid_arg (Printf.sprintf "Netwire: %s out of range" label)

(* charge for materializing [n] bytes into/out of a ring message; the
   rings themselves run with [~account:false], so this is where each
   payload byte is paid for — once per side, the zero-copy contract *)
let copy_cost ctx n = Call_ctx.access ctx n

(* With tracing on, every ring message carries the ambient request id
   in 4 extra header bytes; parse re-establishes the ambient scope at
   the consuming side. The rid bytes are never charged — tracing must
   add zero simulated cycles — and tracing flips only between runs, so
   both sides always agree on the format. *)
let rid_len () = if Trace.enabled () then 4 else 0

module Delivery = struct
  type t = { src : int; sport : int; payload : bytes }

  let header_len = 4

  let build ctx ~src ~sport payload =
    check16 "delivery src" src;
    check16 "delivery sport" sport;
    let rl = rid_len () in
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + rl + plen) in
    Bytes.set_uint16_be b 0 src;
    Bytes.set_uint16_be b 2 sport;
    if rl > 0 then Wire.set32 b header_len (Trace.current ());
    Bytes.blit payload 0 b (header_len + rl) plen;
    copy_cost ctx (header_len + plen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    let rl = rid_len () in
    if total < header_len + rl then Error "delivery: truncated"
    else begin
      let src = Bytes.get_uint16_be b 0 and sport = Bytes.get_uint16_be b 2 in
      if rl > 0 then Trace.set_current (Wire.get32 b header_len);
      let payload = Bytes.sub b (header_len + rl) (total - header_len - rl) in
      copy_cost ctx (total - rl);
      Ok { src; sport; payload }
    end
end

module Txreq = struct
  type t = { dst : int; sport : int; dport : int; payload : bytes }

  let header_len = 6

  let build ctx ~dst ~sport ~dport payload =
    check16 "txreq dst" dst;
    check16 "txreq sport" sport;
    check16 "txreq dport" dport;
    let rl = rid_len () in
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + rl + plen) in
    Bytes.set_uint16_be b 0 dst;
    Bytes.set_uint16_be b 2 sport;
    Bytes.set_uint16_be b 4 dport;
    if rl > 0 then Wire.set32 b header_len (Trace.current ());
    Bytes.blit payload 0 b (header_len + rl) plen;
    copy_cost ctx (header_len + plen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    let rl = rid_len () in
    if total < header_len + rl then Error "txreq: truncated"
    else begin
      let dst = Bytes.get_uint16_be b 0
      and sport = Bytes.get_uint16_be b 2
      and dport = Bytes.get_uint16_be b 4 in
      if rl > 0 then Trace.set_current (Wire.get32 b header_len);
      let payload = Bytes.sub b (header_len + rl) (total - header_len - rl) in
      copy_cost ctx (total - rl);
      Ok { dst; sport; dport; payload }
    end
end

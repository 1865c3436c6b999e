module Call_ctx = Pm_obj.Call_ctx
module Wire = Pm_components.Wire
module Trace = Pm_journal.Trace

(* Each [Call_ctx.access] below pays for materializing bytes into/out of
   a ring message; the rings themselves run with [~account:false], so
   this is where each payload byte is paid for — once per side, the
   zero-copy contract. With tracing on, every message carries the
   ambient request id in the {!Trace} rid field after its header. *)

module Delivery = struct
  type t = { src : int; sport : int; payload : bytes }

  let header_len = 4

  let build ctx ~src ~sport payload ~off ~len =
    Wire.check16 "delivery src" src;
    Wire.check16 "delivery sport" sport;
    let rl = Trace.rid_len () in
    let b = Bytes.create (header_len + rl + len) in
    Bytes.set_uint16_be b 0 src;
    Bytes.set_uint16_be b 2 sport;
    Trace.write_rid b header_len;
    Bytes.blit payload off b (header_len + rl) len;
    Call_ctx.access ctx (header_len + len);
    b

  let parse ctx b =
    let total = Bytes.length b in
    let rl = Trace.rid_len () in
    if total < header_len + rl then Error "delivery: truncated"
    else begin
      let src = Bytes.get_uint16_be b 0 and sport = Bytes.get_uint16_be b 2 in
      Trace.read_rid b header_len;
      let payload = Bytes.sub b (header_len + rl) (total - header_len - rl) in
      Call_ctx.access ctx (total - rl);
      Ok { src; sport; payload }
    end
end

module Txreq = struct
  type t = { dst : int; sport : int; dport : int; payload : bytes }

  let header_len = 6

  let build ctx ~dst ~sport ~dport payload =
    Wire.check16 "txreq dst" dst;
    Wire.check16 "txreq sport" sport;
    Wire.check16 "txreq dport" dport;
    let rl = Trace.rid_len () in
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + rl + plen) in
    Bytes.set_uint16_be b 0 dst;
    Bytes.set_uint16_be b 2 sport;
    Bytes.set_uint16_be b 4 dport;
    Trace.write_rid b header_len;
    Bytes.blit payload 0 b (header_len + rl) plen;
    Call_ctx.access ctx (header_len + plen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    let rl = Trace.rid_len () in
    if total < header_len + rl then Error "txreq: truncated"
    else begin
      let dst = Bytes.get_uint16_be b 0
      and sport = Bytes.get_uint16_be b 2
      and dport = Bytes.get_uint16_be b 4 in
      Trace.read_rid b header_len;
      let payload = Bytes.sub b (header_len + rl) (total - header_len - rl) in
      Call_ctx.access ctx (total - rl);
      Ok { dst; sport; dport; payload }
    end
end

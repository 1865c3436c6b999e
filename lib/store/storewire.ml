module Call_ctx = Pm_obj.Call_ctx
module Wire = Pm_components.Wire
module Trace = Pm_journal.Trace

(* Each [Call_ctx.access] below pays for materializing a KV message's
   bytes into/out of a Pm_net port's ring, or a log record's into/out of
   its block. The rings run with [~account:false] (but for the KV
   client's reply drain, see [Kv.replies]), so each payload byte is paid
   for exactly once per side — the same zero-copy contract as Netwire.
   KV messages carry the {!Trace} rid field after their fixed header, as
   Netwire's do. Log [Record]s never carry a rid: they are durable data,
   and their stored bytes must not depend on who wrote them. *)

(* ------------------------------------------------------------------ *)
(* Log records: how the KV store serializes entries into the log.      *)
(* ------------------------------------------------------------------ *)

let rec_put = 1
let rec_del = 2

module Record = struct
  type t = { op : int; key : bytes; value : bytes }

  let header_len = 3

  let build ctx ~op ~key value =
    if op <> rec_put && op <> rec_del then invalid_arg "Storewire: bad record op";
    let klen = Bytes.length key in
    Wire.check16 "record key length" klen;
    let vlen = Bytes.length value in
    let b = Bytes.create (header_len + klen + vlen) in
    Bytes.set b 0 (Char.chr op);
    Bytes.set_uint16_be b 1 klen;
    Bytes.blit key 0 b header_len klen;
    Bytes.blit value 0 b (header_len + klen) vlen;
    Call_ctx.access ctx (header_len + klen + vlen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    if total < header_len then Error "record: truncated"
    else begin
      let op = Char.code (Bytes.get b 0) in
      if op <> rec_put && op <> rec_del then Error "record: bad op"
      else begin
        let klen = Bytes.get_uint16_be b 1 in
        if total < header_len + klen then Error "record: truncated key"
        else begin
          let key = Bytes.sub b header_len klen in
          let value = Bytes.sub b (header_len + klen) (total - header_len - klen) in
          Call_ctx.access ctx total;
          Ok { op; key; value }
        end
      end
    end
end

(* ------------------------------------------------------------------ *)
(* KV protocol over Pm_net ports.                                      *)
(* ------------------------------------------------------------------ *)

let kv_get = 1
let kv_put = 2
let kv_del = 3

(* makes every write answered so far durable; key and value empty *)
let kv_flush = 4

module Kvmsg = struct
  type req = { op : int; key : bytes; value : bytes }

  let req_header_len = 3

  let build_req ctx ~op ~key value =
    if op < kv_get || op > kv_flush then invalid_arg "Storewire: bad kv op";
    let klen = Bytes.length key in
    Wire.check16 "kv key length" klen;
    let rl = Trace.rid_len () in
    let vlen = Bytes.length value in
    let b = Bytes.create (req_header_len + rl + klen + vlen) in
    Bytes.set b 0 (Char.chr op);
    Bytes.set_uint16_be b 1 klen;
    Trace.write_rid b req_header_len;
    Bytes.blit key 0 b (req_header_len + rl) klen;
    Bytes.blit value 0 b (req_header_len + rl + klen) vlen;
    Call_ctx.access ctx (req_header_len + klen + vlen);
    b

  let parse_req ctx b =
    let total = Bytes.length b in
    let rl = Trace.rid_len () in
    if total < req_header_len + rl then Error "kv req: truncated"
    else begin
      let op = Char.code (Bytes.get b 0) in
      if op < kv_get || op > kv_flush then Error "kv req: bad op"
      else begin
        let klen = Bytes.get_uint16_be b 1 in
        if total < req_header_len + rl + klen then Error "kv req: truncated key"
        else begin
          Trace.read_rid b req_header_len;
          let key = Bytes.sub b (req_header_len + rl) klen in
          let value =
            Bytes.sub b
              (req_header_len + rl + klen)
              (total - req_header_len - rl - klen)
          in
          Call_ctx.access ctx (total - rl);
          Ok { op; key; value }
        end
      end
    end

  type resp = { status : int; payload : bytes }

  let resp_header_len = 1
  let status_ok = 0
  let status_not_found = 1
  let status_error = 2

  let build_resp ctx ~status payload =
    let rl = Trace.rid_len () in
    let plen = Bytes.length payload in
    let b = Bytes.create (resp_header_len + rl + plen) in
    Bytes.set b 0 (Char.chr (status land 0xff));
    Trace.write_rid b resp_header_len;
    Bytes.blit payload 0 b (resp_header_len + rl) plen;
    Call_ctx.access ctx (resp_header_len + plen);
    b

  let parse_resp ctx b =
    let total = Bytes.length b in
    let rl = Trace.rid_len () in
    if total < resp_header_len + rl then Error "kv resp: truncated"
    else begin
      let status = Char.code (Bytes.get b 0) in
      Trace.read_rid b resp_header_len;
      let payload =
        Bytes.sub b (resp_header_len + rl) (total - resp_header_len - rl)
      in
      Call_ctx.access ctx (total - rl);
      Ok { status; payload }
    end
end

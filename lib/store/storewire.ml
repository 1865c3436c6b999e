module Call_ctx = Pm_obj.Call_ctx
module Wire = Pm_components.Wire
module Trace = Pm_journal.Trace

(* Each [Call_ctx.access] below pays for materializing bytes into/out of
   a ring message; the rings run with [~account:false], so each payload
   byte is paid for exactly once per side — the same zero-copy contract
   as Netwire. Block and KV messages carry the {!Trace} rid field after
   their fixed header, as Netwire's do. Log [Record]s never carry a rid:
   they are durable data, and their stored bytes must not depend on who
   wrote them. *)

(* ------------------------------------------------------------------ *)
(* Block requests/responses over rings (the Storechan path).           *)
(* ------------------------------------------------------------------ *)

let op_read = 1
let op_write = 2
let op_flush = 3

module Blkreq = struct
  type t = { op : int; tag : int; block : int; payload : bytes }

  let header_len = 7

  let build ctx ~op ~tag ~block payload =
    if op < op_read || op > op_flush then invalid_arg "Storewire: bad block op";
    Wire.check16 "blkreq tag" tag;
    if block < 0 then invalid_arg "Storewire: negative block";
    let rl = Trace.rid_len () in
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + rl + plen) in
    Bytes.set b 0 (Char.chr op);
    Bytes.set_uint16_be b 1 tag;
    Wire.set32 b 3 block;
    Trace.write_rid b header_len;
    Bytes.blit payload 0 b (header_len + rl) plen;
    Call_ctx.access ctx (header_len + plen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    let rl = Trace.rid_len () in
    if total < header_len + rl then Error "blkreq: truncated"
    else begin
      let op = Char.code (Bytes.get b 0) in
      if op < op_read || op > op_flush then Error "blkreq: bad op"
      else begin
        let tag = Bytes.get_uint16_be b 1 and block = Wire.get32 b 3 in
        Trace.read_rid b header_len;
        let payload = Bytes.sub b (header_len + rl) (total - header_len - rl) in
        Call_ctx.access ctx (total - rl);
        Ok { op; tag; block; payload }
      end
    end
end

module Blkresp = struct
  type t = { tag : int; status : int; payload : bytes }

  let header_len = 3
  let status_ok = 0

  let build ctx ~tag ~status payload =
    Wire.check16 "blkresp tag" tag;
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + plen) in
    Bytes.set_uint16_be b 0 tag;
    Bytes.set b 2 (Char.chr (status land 0xff));
    Bytes.blit payload 0 b header_len plen;
    Call_ctx.access ctx (header_len + plen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    if total < header_len then Error "blkresp: truncated"
    else begin
      let tag = Bytes.get_uint16_be b 0 and status = Char.code (Bytes.get b 2) in
      let payload = Bytes.sub b header_len (total - header_len) in
      Call_ctx.access ctx total;
      Ok { tag; status; payload }
    end
end

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

module Kvmsg = struct
  type req = { op : int; key : bytes; value : bytes }

  let req_header_len = 3

  let build_req ctx ~op ~key value =
    if op < kv_get || op > kv_del then invalid_arg "Storewire: bad kv op";
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
      if op < kv_get || op > kv_del then Error "kv req: bad op"
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

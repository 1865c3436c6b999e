module Call_ctx = Pm_obj.Call_ctx

let check16 label v =
  if v < 0 || v > 0xffff then invalid_arg (Printf.sprintf "Wire: %s out of range" label)

(* Unsigned big-endian 32-bit fields; 16-bit ones use the stdlib's
   [Bytes.get_uint16_be]/[Bytes.set_uint16_be]. *)
let get32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff
let set32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

(* 16-bit ones' complement sum; charges one access per byte summed. *)
let sum16 ctx b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Wire.sum16: range out of bounds";
  Call_ctx.access ctx len;
  let acc = ref 0 in
  let i = ref off in
  let last = off + len in
  while !i < last do
    let word =
      if !i + 1 < last then Bytes.get_uint16_be b !i else Char.code (Bytes.get b !i) lsl 8
    in
    acc := !acc + word;
    if !acc > 0xffff then acc := (!acc land 0xffff) + 1;
    i := !i + 2
  done;
  lnot !acc land 0xffff

(* charge for materializing [n] payload bytes into/out of a packet *)
let copy_cost ctx n = Call_ctx.access ctx n

module Frame = struct
  type t = { dst : int; src : int; payload : bytes }

  let header_len = 6
  let trailer_len = 2

  let build ctx ~dst ~src payload =
    check16 "frame dst" dst;
    check16 "frame src" src;
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + plen + trailer_len) in
    Bytes.set_uint16_be b 0 dst;
    Bytes.set_uint16_be b 2 src;
    Bytes.set_uint16_be b 4 plen;
    Bytes.blit payload 0 b header_len plen;
    copy_cost ctx (header_len + plen);
    let fcs = sum16 ctx b ~off:0 ~len:(header_len + plen) in
    Bytes.set_uint16_be b (header_len + plen) fcs;
    b

  let parse ctx b =
    let total = Bytes.length b in
    if total < header_len + trailer_len then Error "frame: truncated"
    else begin
      Call_ctx.access ctx header_len;
      let dst = Bytes.get_uint16_be b 0
      and src = Bytes.get_uint16_be b 2
      and plen = Bytes.get_uint16_be b 4 in
      if total <> header_len + plen + trailer_len then Error "frame: bad length"
      else begin
        let fcs = sum16 ctx b ~off:0 ~len:(header_len + plen) in
        if fcs <> Bytes.get_uint16_be b (header_len + plen) then Error "frame: bad fcs"
        else begin
          let payload = Bytes.sub b header_len plen in
          copy_cost ctx plen;
          Ok { dst; src; payload }
        end
      end
    end
end

module Net = struct
  type t = { src : int; dst : int; ttl : int; proto : int; payload : bytes }

  let header_len = 10

  let build ctx ~src ~dst ~ttl ~proto payload =
    check16 "net src" src;
    check16 "net dst" dst;
    if ttl < 0 || ttl > 255 then invalid_arg "Wire: ttl out of range";
    if proto < 0 || proto > 255 then invalid_arg "Wire: proto out of range";
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + plen) in
    Bytes.set_uint16_be b 0 src;
    Bytes.set_uint16_be b 2 dst;
    Bytes.set b 4 (Char.chr ttl);
    Bytes.set b 5 (Char.chr proto);
    Bytes.set_uint16_be b 6 (header_len + plen);
    Bytes.set_uint16_be b 8 0;
    let ck = sum16 ctx b ~off:0 ~len:header_len in
    Bytes.set_uint16_be b 8 ck;
    Bytes.blit payload 0 b header_len plen;
    copy_cost ctx (header_len + plen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    if total < header_len then Error "net: truncated"
    else begin
      Call_ctx.access ctx header_len;
      let src = Bytes.get_uint16_be b 0
      and dst = Bytes.get_uint16_be b 2
      and ttl = Char.code (Bytes.get b 4)
      and proto = Char.code (Bytes.get b 5)
      and tlen = Bytes.get_uint16_be b 6
      and ck = Bytes.get_uint16_be b 8 in
      if tlen <> total then Error "net: bad length"
      else begin
        Bytes.set_uint16_be b 8 0;
        let expect = sum16 ctx b ~off:0 ~len:header_len in
        Bytes.set_uint16_be b 8 ck;
        if expect <> ck then Error "net: bad checksum"
        else begin
          let payload = Bytes.sub b header_len (total - header_len) in
          copy_cost ctx (total - header_len);
          Ok { src; dst; ttl; proto; payload }
        end
      end
    end

  let decrement_ttl ctx b =
    if Bytes.length b < header_len then Error "net: truncated"
    else begin
      let ttl = Char.code (Bytes.get b 4) in
      if ttl <= 1 then Error "net: ttl expired"
      else begin
        Bytes.set b 4 (Char.chr (ttl - 1));
        Bytes.set_uint16_be b 8 0;
        let ck = sum16 ctx b ~off:0 ~len:header_len in
        Bytes.set_uint16_be b 8 ck;
        Ok ()
      end
    end
end

module Transport = struct
  type t = { sport : int; dport : int; payload : bytes }

  let header_len = 8

  let build ctx ~sport ~dport payload =
    check16 "sport" sport;
    check16 "dport" dport;
    let plen = Bytes.length payload in
    let b = Bytes.create (header_len + plen) in
    Bytes.set_uint16_be b 0 sport;
    Bytes.set_uint16_be b 2 dport;
    Bytes.set_uint16_be b 4 plen;
    Bytes.blit payload 0 b header_len plen;
    let ck = sum16 ctx b ~off:header_len ~len:plen in
    Bytes.set_uint16_be b 6 ck;
    copy_cost ctx (header_len + plen);
    b

  let parse ctx b =
    let total = Bytes.length b in
    if total < header_len then Error "transport: truncated"
    else begin
      Call_ctx.access ctx header_len;
      let sport = Bytes.get_uint16_be b 0
      and dport = Bytes.get_uint16_be b 2
      and plen = Bytes.get_uint16_be b 4
      and ck = Bytes.get_uint16_be b 6 in
      if total <> header_len + plen then Error "transport: bad length"
      else begin
        let expect = sum16 ctx b ~off:header_len ~len:plen in
        if expect <> ck then Error "transport: bad checksum"
        else begin
          let payload = Bytes.sub b header_len plen in
          copy_cost ctx plen;
          Ok { sport; dport; payload }
        end
      end
    end
end

let stack_overhead =
  Frame.header_len + Frame.trailer_len + Net.header_len + Transport.header_len

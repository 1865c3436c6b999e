module Call_ctx = Pm_obj.Call_ctx

let check16 label v =
  if v < 0 || v > 0xffff then invalid_arg (Printf.sprintf "Wire: %s out of range" label)

(* Unsigned big-endian 32-bit fields; 16-bit ones use the stdlib's
   [Bytes.get_uint16_be]/[Bytes.set_uint16_be]. *)
let get32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff
let set32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

let in_bounds b ~off ~len = off >= 0 && len >= 0 && off <= Bytes.length b - len

(* 16-bit ones' complement sum of [len] bytes at [off], uncharged. *)
let fold16 b ~off ~len =
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

(* charges one access per byte summed *)
let sum16 ctx b ~off ~len =
  if not (in_bounds b ~off ~len) then invalid_arg "Wire.sum16: range out of bounds";
  Call_ctx.access ctx len;
  fold16 b ~off ~len

(* The one buffer a packet lives in: copying the payload in is the
   packet's one payload copy, charged a byte at a time. The header and
   trailer room is zeroed so that a layer that leaves a byte unwritten
   leaves it deterministic. *)
let packet ctx ~headroom ~tailroom payload =
  if headroom < 0 || tailroom < 0 then invalid_arg "Wire.packet: negative room";
  let plen = Bytes.length payload in
  let b = Bytes.create (headroom + plen + tailroom) in
  Bytes.fill b 0 headroom '\000';
  Bytes.blit payload 0 b headroom plen;
  Bytes.fill b (headroom + plen) tailroom '\000';
  Call_ctx.access ctx plen;
  b

(* Every [write] checks its room before it stores a byte; every [parse]
   checks the range it is given against the buffer and each length field
   against that range, so it reads nothing outside the range. *)

module Frame = struct
  type t = { dst : int; src : int; off : int; len : int }

  let header_len = 6
  let trailer_len = 2

  let write ctx b ~off ~dst ~src ~len =
    check16 "frame dst" dst;
    check16 "frame src" src;
    check16 "frame length" len;
    if not (in_bounds b ~off ~len:(header_len + len + trailer_len)) then
      invalid_arg "Wire.Frame.write: no room for the header and trailer";
    Bytes.set_uint16_be b off dst;
    Bytes.set_uint16_be b (off + 2) src;
    Bytes.set_uint16_be b (off + 4) len;
    Call_ctx.access ctx header_len;
    let fcs = sum16 ctx b ~off ~len:(header_len + len) in
    Bytes.set_uint16_be b (off + header_len + len) fcs

  let parse ctx b ~off ~len =
    if not (in_bounds b ~off ~len) then Error "frame: range outside the buffer"
    else if len < header_len + trailer_len then Error "frame: truncated"
    else begin
      Call_ctx.access ctx header_len;
      let dst = Bytes.get_uint16_be b off
      and src = Bytes.get_uint16_be b (off + 2)
      and plen = Bytes.get_uint16_be b (off + 4) in
      if len <> header_len + plen + trailer_len then Error "frame: bad length"
      else begin
        let fcs = sum16 ctx b ~off ~len:(header_len + plen) in
        if fcs <> Bytes.get_uint16_be b (off + header_len + plen) then
          Error "frame: bad fcs"
        else Ok { dst; src; off = off + header_len; len = plen }
      end
    end
end

module Net = struct
  type t = { src : int; dst : int; ttl : int; proto : int; off : int; len : int }

  let header_len = 10

  (* The checksum is the header's last word: summing the header with it
     zeroed is summing the bytes before it, and it is charged as a pass
     over the whole header. *)
  let header_sum ctx b off =
    Call_ctx.access ctx header_len;
    fold16 b ~off ~len:(header_len - 2)

  let write ctx b ~off ~src ~dst ~ttl ~proto ~len =
    check16 "net src" src;
    check16 "net dst" dst;
    if ttl < 0 || ttl > 255 then invalid_arg "Wire: ttl out of range";
    if proto < 0 || proto > 255 then invalid_arg "Wire: proto out of range";
    check16 "net length" (header_len + len);
    if not (in_bounds b ~off ~len:(header_len + len)) then
      invalid_arg "Wire.Net.write: no room for the header";
    Bytes.set_uint16_be b off src;
    Bytes.set_uint16_be b (off + 2) dst;
    Bytes.set b (off + 4) (Char.chr ttl);
    Bytes.set b (off + 5) (Char.chr proto);
    Bytes.set_uint16_be b (off + 6) (header_len + len);
    Call_ctx.access ctx header_len;
    Bytes.set_uint16_be b (off + 8) (header_sum ctx b off)

  let parse ctx b ~off ~len =
    if not (in_bounds b ~off ~len) then Error "net: range outside the buffer"
    else if len < header_len then Error "net: truncated"
    else begin
      Call_ctx.access ctx header_len;
      let src = Bytes.get_uint16_be b off
      and dst = Bytes.get_uint16_be b (off + 2)
      and ttl = Char.code (Bytes.get b (off + 4))
      and proto = Char.code (Bytes.get b (off + 5))
      and tlen = Bytes.get_uint16_be b (off + 6)
      and ck = Bytes.get_uint16_be b (off + 8) in
      if tlen <> len then Error "net: bad length"
      else if header_sum ctx b off <> ck then Error "net: bad checksum"
      else Ok { src; dst; ttl; proto; off = off + header_len; len = len - header_len }
    end

  let decrement_ttl ctx b ~off =
    if not (in_bounds b ~off ~len:header_len) then Error "net: truncated"
    else begin
      let ttl = Char.code (Bytes.get b (off + 4)) in
      if ttl <= 1 then Error "net: ttl expired"
      else begin
        Bytes.set b (off + 4) (Char.chr (ttl - 1));
        Bytes.set_uint16_be b (off + 8) (header_sum ctx b off);
        Ok ()
      end
    end
end

module Transport = struct
  type t = { sport : int; dport : int; off : int; len : int }

  let header_len = 8

  let write ctx b ~off ~sport ~dport ~len =
    check16 "sport" sport;
    check16 "dport" dport;
    check16 "transport length" len;
    if not (in_bounds b ~off ~len:(header_len + len)) then
      invalid_arg "Wire.Transport.write: no room for the header";
    Bytes.set_uint16_be b off sport;
    Bytes.set_uint16_be b (off + 2) dport;
    Bytes.set_uint16_be b (off + 4) len;
    Call_ctx.access ctx header_len;
    Bytes.set_uint16_be b (off + 6) (sum16 ctx b ~off:(off + header_len) ~len)

  let parse ctx b ~off ~len =
    if not (in_bounds b ~off ~len) then Error "transport: range outside the buffer"
    else if len < header_len then Error "transport: truncated"
    else begin
      Call_ctx.access ctx header_len;
      let sport = Bytes.get_uint16_be b off
      and dport = Bytes.get_uint16_be b (off + 2)
      and plen = Bytes.get_uint16_be b (off + 4)
      and ck = Bytes.get_uint16_be b (off + 6) in
      if len <> header_len + plen then Error "transport: bad length"
      else if sum16 ctx b ~off:(off + header_len) ~len:plen <> ck then
        Error "transport: bad checksum"
      else Ok { sport; dport; off = off + header_len; len = plen }
    end
end

let headroom = Frame.header_len + Net.header_len + Transport.header_len
let tailroom = Frame.trailer_len
let stack_overhead = headroom + tailroom

let frame ctx ~src ~dst ~ttl ~proto ~sport ~dport payload =
  let len = Bytes.length payload in
  let b = packet ctx ~headroom ~tailroom payload in
  let noff = Frame.header_len in
  let toff = noff + Net.header_len in
  Transport.write ctx b ~off:toff ~sport ~dport ~len;
  Net.write ctx b ~off:noff ~src ~dst ~ttl ~proto ~len:(Transport.header_len + len);
  Frame.write ctx b ~off:0 ~dst ~src ~len:(Net.header_len + Transport.header_len + len);
  b

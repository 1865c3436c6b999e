(* Append-only log on a lower "block" component.

   Layout: lower block 0 is the superblock (magic "PMLG" + record
   count). Records are packed from lower block 1 on, each one after the
   previous in the current tail block as [word:2][payload], where the
   word is the payload's length with its top bit set. A record opens the
   next block only when it does not fit in the tail, so every block the
   log opens starts with a record, and a zero word, or no room left for
   a word, ends a block's records. The largest record, 510 bytes, fills
   a block alone.

   The log keeps record i's (block, offset) in an in-memory table and
   its tail block's bytes as it last wrote them: an append writes the
   record into the tail and writes the whole block down, charging only
   the bytes it wrote into it. The record count is made durable by
   [flush], which pushes the records down first and then writes and
   flushes the superblock, so a crash (or detach without flush) loses
   only unflushed appends, never earlier records. [recover] reads the
   superblock and scans the data blocks up to its count into a fresh
   table, committed only when the scan finds every record it counts:
   otherwise it refuses by name and the log keeps its state. Records
   past the count are ignored, and the next append overwrites them; if
   an eviction carried some to the media before a crash, [recover]
   writes the tail block back without them.

   Exports the "log" interface (append/get/entries/recover) for the KV
   store, plus the uniform "block" view so the log composes like any
   other layer, indexed by record: read i = the data block holding
   record i, packed with its neighbours; write i = append, only at i =
   the record count. *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx
module Wire = Pm_components.Wire

let fault msg = Error (Oerror.Fault msg)
let ( let* ) = Result.bind

let magic = "PMLG"
let header_len = 8 (* magic:4 count:4 *)
let word_len = 2
let record_bit = 0x8000
let max_record = Blockif.block_size - word_len

type state = {
  lower : Blockif.lower;
  mutable pos : int array; (* record i at block pos.(i) / block_size, offset mod *)
  mutable entries : int;
  mutable flushed : int; (* entry count last made durable *)
  mutable tail : bytes; (* the tail block as last written; zero past [used] *)
  mutable tail_block : int; (* 0, the superblock, until the first append *)
  mutable used : int;
  mutable appends : int;
  mutable gets : int;
}

let block_of p = p / Blockif.block_size
let offset_of p = p mod Blockif.block_size

(* [pos] with room for index [n] *)
let room pos n =
  if n < Array.length pos then pos
  else begin
    let grown = Array.make (2 * n + 16) 0 in
    Array.blit pos 0 grown 0 n;
    grown
  end

(* what the word at [off] of a block says: a record of [len] bytes, the
   end of the block's records (a zero word, or no room for one), or
   neither *)
type word = Record of int | End | Corrupt

let word_at data off =
  if off + word_len > Bytes.length data then End
  else
    let w = Bytes.get_uint16_be data off in
    if w = 0 then End
    else
      let len = w land lnot record_bit in
      if w land record_bit = 0 || off + word_len + len > Bytes.length data then Corrupt
      else Record len

(* where a record of [need] bytes goes: the tail, or the start of the
   next block if the lower layer has one *)
let place st ctx need =
  if st.used + need <= Blockif.block_size then Ok (st.tail_block, st.used)
  else
    let* n = Blockif.size st.lower ctx in
    if st.tail_block + 1 >= n then fault "log: full" else Ok (st.tail_block + 1, 0)

let append_op st ctx payload =
  let plen = Bytes.length payload in
  if plen > max_record then fault "log: record exceeds block"
  else begin
    let* block, off = place st ctx (word_len + plen) in
    let data =
      if block = st.tail_block then st.tail else Bytes.make Blockif.block_size '\000'
    in
    Bytes.set_uint16_be data off (record_bit lor plen);
    Bytes.blit payload 0 data (off + word_len) plen;
    Call_ctx.access ctx (word_len + plen);
    match Blockif.write st.lower ctx block data with
    | Error _ as e ->
      Bytes.fill data off (word_len + plen) '\000';
      e
    | Ok () ->
      let seq = st.entries in
      st.pos <- room st.pos seq;
      st.pos.(seq) <- (block * Blockif.block_size) + off;
      st.tail <- data;
      st.tail_block <- block;
      st.used <- off + word_len + plen;
      st.entries <- seq + 1;
      st.appends <- st.appends + 1;
      Ok seq
  end

let get_op st ctx seq =
  if seq < 0 || seq >= st.entries then
    fault (Printf.sprintf "log: no record %d (have %d)" seq st.entries)
  else begin
    let p = st.pos.(seq) in
    let* block = Blockif.read st.lower ctx (block_of p) in
    let off = offset_of p in
    match word_at block off with
    | Record plen ->
      (* the lower layer lends its block: read the length word and the
         record out of it *)
      Call_ctx.access ctx (word_len + plen);
      st.gets <- st.gets + 1;
      Ok (Bytes.sub block (off + word_len) plen)
    | End | Corrupt -> fault (Printf.sprintf "log: corrupt record %d" seq)
  end

(* The records reach the layer below before the superblock that counts
   them: the first flush pushes every dirty block down, the second only
   the superblock. *)
let flush_op st ctx =
  let* records = Blockif.flush st.lower ctx in
  let sb = Bytes.make Blockif.block_size '\000' in
  Bytes.blit_string magic 0 sb 0 4;
  Wire.set32 sb 4 st.entries;
  Call_ctx.access ctx header_len;
  let* () = Blockif.write st.lower ctx 0 sb in
  let* superblock = Blockif.flush st.lower ctx in
  st.flushed <- st.entries;
  Ok (records + superblock)

(* Scan the data blocks for [count] records, charging each word read.
   Returns the position table, the last record's block and its bytes,
   and the offset just past that record. *)
let scan st ctx count =
  let* n = Blockif.size st.lower ctx in
  let short found =
    fault
      (Printf.sprintf "log: superblock count %d exceeds the %d records on the media"
         count found)
  in
  let rec go pos i block data off =
    if i = count then Ok (pos, block, data, off)
    else
      match word_at data off with
      | Corrupt -> fault (Printf.sprintf "log: corrupt record %d in block %d" i block)
      | Record len ->
        Call_ctx.access ctx word_len;
        let pos = room pos i in
        pos.(i) <- (block * Blockif.block_size) + off;
        go pos (i + 1) block data (off + word_len + len)
      | End ->
        if off + word_len <= Bytes.length data then Call_ctx.access ctx word_len;
        if off = 0 || block + 1 >= n then short i
        else
          let* next = Blockif.read st.lower ctx (block + 1) in
          go pos i (block + 1) next 0
  in
  if count = 0 then Ok ([||], 0, Bytes.empty, Blockif.block_size)
  else if n < 2 then short 0
  else
    let* first = Blockif.read st.lower ctx 1 in
    go [||] 0 1 first 0

(* The superblock is read back from the media, so its count is believed
   only once the scan has found that many records: a scribbled count is
   refused and the in-memory state stays as it was. *)
let recover_op st ctx =
  let* sb = Blockif.read st.lower ctx 0 in
  Call_ctx.access ctx header_len;
  let count =
    if Bytes.length sb >= header_len && Bytes.sub_string sb 0 4 = magic then
      Wire.get32 sb 4
    else 0
  in
  let* pos, block, data, used = scan st ctx count in
  let tail = Bytes.make Blockif.block_size '\000' in
  Bytes.blit data 0 tail 0 (min used (Bytes.length data));
  (* write the tail block back without any records past the count, so
     that a later count reaching past this block cannot read them *)
  let* () =
    match word_at data used with
    | End -> Ok ()
    | Record _ | Corrupt -> Blockif.write st.lower ctx block tail
  in
  st.pos <- pos;
  st.entries <- count;
  st.flushed <- count;
  st.tail <- tail;
  st.tail_block <- block;
  st.used <- used;
  Ok count

let create api dom ~name ~lower () =
  let st =
    {
      lower = Blockif.make_lower api dom lower;
      pos = [||];
      entries = 0;
      flushed = 0;
      tail = Bytes.empty;
      tail_block = 0;
      used = Blockif.block_size;
      appends = 0;
      gets = 0;
    }
  in
  let log_iface =
    Iface.make ~name:"log"
      [
        Iface.fn1 ~name:"append" Iface.Blob ~ret:Vtype.Tint (fun ctx payload ->
            Blockif.traced_span api "log" (fun () ->
                let* seq = append_op st ctx payload in
                Blockif.traced_note api ~info:seq "log-append";
                Ok (Value.Int seq)));
        Iface.fn1 ~name:"get" Iface.Int ~ret:Vtype.Tblob (fun ctx seq ->
            Blockif.traced_span api "log" (fun () ->
                Result.map (fun payload -> Value.Blob payload) (get_op st ctx seq)));
        Iface.fn0 ~name:"entries" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int st.entries));
        Iface.fn0 ~name:"recover" ~ret:Vtype.Tint (fun ctx ->
            Blockif.traced_span api "log" (fun () ->
                Result.map (fun n -> Value.Int n) (recover_op st ctx)));
      ]
  in
  (* uniform block view, indexed by record: read i = the block holding
     record i, write only appends *)
  let block_iface =
    Blockif.methods
      ~read:(fun ctx i ->
        if i < 0 || i >= st.entries then fault "log: read past end"
        else
          Blockif.traced_span api "log" (fun () ->
              Blockif.read st.lower ctx (block_of st.pos.(i))))
      ~write:(fun ctx i data ->
        if i <> st.entries then fault "log: append-only (write at end)"
        else
          Blockif.traced_span api "log" (fun () ->
              let* _ = append_op st ctx data in
              Ok ()))
      ~flush:(fun ctx -> Blockif.traced_span api "log" (fun () -> flush_op st ctx))
      ~size:(fun _ctx -> Ok st.entries)
      ~blocksize:(fun () -> Blockif.block_size)
      ~stats:(fun () -> [ st.appends; st.gets; st.entries; st.flushed ])
  in
  let inst =
    Instance.create api.Api.registry ~class_name:"store.log"
      ~domain:dom.Domain.id [ log_iface; block_iface ]
  in
  ignore
    (Storereg.register ~machine:api.Api.machine ~name ~kind:Storereg.Log ~lower
       ~instance:inst ~domain:dom.Domain.id
       ~dirty:(fun () -> st.entries - st.flushed)
       ());
  inst

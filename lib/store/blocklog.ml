(* Append-only log on a lower "block" component.

   Layout: lower block 0 is the superblock (magic "PMLG" + entry count);
   record [i] lives in lower block [1 + i] as [len:2][payload]. The
   entry count is kept in memory and made durable by [flush], which
   rewrites the superblock before forwarding the flush down — so a crash
   (or detach without flush) loses only unflushed appends, never
   corrupts earlier records. [recover] rebuilds the in-memory count from
   the superblock, refusing a count beyond the log's capacity.

   Exports the "log" interface (append/get/entries/recover) for the KV
   store, plus the uniform "block" view so the log composes like any
   other layer: read i = record block i, write is append-at-end only. *)

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

type state = {
  lower : Blockif.lower;
  mutable entries : int;
  mutable flushed : int; (* entry count last made durable *)
  mutable appends : int;
  mutable gets : int;
}

let capacity st ctx =
  let* n = Blockif.size st.lower ctx in
  Ok (n - 1)

let append_op st ctx payload =
  let plen = Bytes.length payload in
  if plen > Blockif.block_size - 2 then fault "log: record exceeds block"
  else begin
    let* cap = capacity st ctx in
    if st.entries >= cap then fault "log: full"
    else begin
      let block = Bytes.make Blockif.block_size '\000' in
      Bytes.set_uint16_be block 0 plen;
      Bytes.blit payload 0 block 2 plen;
      Call_ctx.access ctx (2 + plen);
      let seq = st.entries in
      let* () = Blockif.write st.lower ctx (1 + seq) block in
      st.entries <- seq + 1;
      st.appends <- st.appends + 1;
      Ok seq
    end
  end

let get_op st ctx seq =
  if seq < 0 || seq >= st.entries then
    fault (Printf.sprintf "log: no record %d (have %d)" seq st.entries)
  else begin
    let* block = Blockif.read st.lower ctx (1 + seq) in
    if Bytes.length block < 2 then fault "log: short record block"
    else begin
      let plen = Bytes.get_uint16_be block 0 in
      if plen > Bytes.length block - 2 then fault "log: corrupt record length"
      else begin
        Call_ctx.access ctx plen;
        st.gets <- st.gets + 1;
        Ok (Bytes.sub block 2 plen)
      end
    end
  end

let flush_op st ctx =
  let sb = Bytes.make Blockif.block_size '\000' in
  Bytes.blit_string magic 0 sb 0 4;
  Wire.set32 sb 4 st.entries;
  Call_ctx.access ctx header_len;
  let* () = Blockif.write st.lower ctx 0 sb in
  let* pushed = Blockif.flush st.lower ctx in
  st.flushed <- st.entries;
  Ok pushed

(* The superblock is read back from the media, so its count is checked
   against the log's capacity before it is believed: a scribbled count
   is refused and the in-memory state stays as it was. *)
let recover_op st ctx =
  let* sb = Blockif.read st.lower ctx 0 in
  let* count =
    if Bytes.length sb >= header_len && Bytes.sub_string sb 0 4 = magic then
      let count = Wire.get32 sb 4 in
      let* cap = capacity st ctx in
      if count > cap then
        fault
          (Printf.sprintf "log: superblock count %d exceeds capacity %d" count cap)
      else Ok count
    else Ok 0
  in
  st.entries <- count;
  st.flushed <- count;
  Ok count

let create api dom ~name ~lower () =
  let st =
    {
      lower = Blockif.make_lower api dom lower;
      entries = 0;
      flushed = 0;
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
  (* uniform block view: read i = raw record block, write only appends *)
  let block_iface =
    Blockif.methods
      ~read:(fun ctx block ->
        if block < 0 || block >= st.entries then fault "log: read past end"
        else
          Blockif.traced_span api "log" (fun () ->
              Blockif.read st.lower ctx (1 + block)))
      ~write:(fun ctx block data ->
        if block <> st.entries then fault "log: append-only (write at end)"
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

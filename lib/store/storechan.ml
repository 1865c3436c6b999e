(* Channel-backed block path: how a client domain reaches a storage
   component living in another domain without a proxy fault per call.

   One MPSC request group feeds the store domain (every client attaches
   a producer handle — the same shape as the net transmit path) and each
   client gets its own SPSC response ring back. Requests and responses
   are {!Storewire.Blkreq}/{!Storewire.Blkresp} frames; the response is
   routed by the request tag, whose high byte is the client id. The
   client-side proxy exports the ordinary "block" interface, so a whole
   remote stack composes under a local partition, cache, or log exactly
   like an in-domain component. *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Instance = Pm_obj.Instance
module Oerror = Pm_obj.Oerror
module Chan = Pm_chan.Chan
module Mpsc = Pm_chan.Mpsc
module Scheduler = Pm_threads.Scheduler
module Wire = Pm_components.Wire

let fault msg = Error (Oerror.Fault msg)
let ( let* ) = Result.bind

type t = {
  api : Api.t;
  serve_dom : Domain.t;
  target : Blockif.lower;
  reqs : Mpsc.t;
  rings : (int, Chan.t) Hashtbl.t; (* client id -> response ring *)
  mutable next_client : int;
  mutable served : int;
  mutable bad : int;
  mutable resp_dropped : int;
}

let serve_one t ctx msg =
  match Storewire.Blkreq.parse ctx msg with
  | Error _ -> t.bad <- t.bad + 1
  | Ok { Storewire.Blkreq.op; tag; block; payload } -> (
    let client = tag lsr 8 in
    match Hashtbl.find_opt t.rings client with
    | None -> t.bad <- t.bad + 1
    | Some ring ->
      let status, rpayload =
        if op = Storewire.op_read then
          match Blockif.read t.target ctx block with
          | Ok data -> (Storewire.Blkresp.status_ok, data)
          | Error _ -> (1, Bytes.empty)
        else if op = Storewire.op_write then
          match Blockif.write t.target ctx block payload with
          | Ok () -> (Storewire.Blkresp.status_ok, Bytes.empty)
          | Error _ -> (1, Bytes.empty)
        else
          match Blockif.flush t.target ctx with
          | Ok n ->
            let b = Bytes.create 4 in
            Wire.set32 b 0 n;
            (Storewire.Blkresp.status_ok, b)
          | Error _ -> (1, Bytes.empty)
      in
      t.served <- t.served + 1;
      let resp = Storewire.Blkresp.build ctx ~tag ~status rpayload in
      if not (Chan.send_or_drop ~account:false ring resp) then
        t.resp_dropped <- t.resp_dropped + 1)

let drain t =
  let ctx = Api.ctx t.api t.serve_dom in
  let msgs = Mpsc.recv_batch ~account:false t.reqs () in
  List.iter (serve_one t ctx) msgs;
  List.length msgs

(* every request group and response ring: 32 slots, each room for a
   512-byte block behind its frame header and a traced rid *)
let slots = 32
let slot_size = 576

let create_server api serve_dom ~target () =
  let t =
    {
      api;
      serve_dom;
      target = Blockif.make_lower api serve_dom target;
      reqs =
        Mpsc.create api.Api.machine api.Api.vmem ~name:"store.req" ~slots
          ~slot_size ~consumer:serve_dom ();
      rings = Hashtbl.create 8;
      next_client = 0;
      served = 0;
      bad = 0;
      resp_dropped = 0;
    }
  in
  ignore
    (Mpsc.on_doorbell t.reqs ~events:api.Api.events ~sched:api.Api.sched
       (fun () -> ignore (drain t)));
  t

let served t = t.served
let bad t = t.bad

let max_polls = 10_000

(* [connect t ~name ~client ()] gives [client] a "block" proxy onto the
   server's target. Geometry (size/blocksize) is snapshotted at connect
   time from the server side; data ops round-trip through the rings. *)
let connect t ~name ~client () =
  let api = t.api in
  let id = t.next_client in
  t.next_client <- t.next_client + 1;
  if id > 0xff then invalid_arg "Storechan.connect: too many clients";
  let ring =
    Chan.create api.Api.machine api.Api.vmem
      ~name:(Printf.sprintf "store.resp.%d" id)
      ~slots ~slot_size ~mode:Chan.Poll ~producer:t.serve_dom ()
  in
  ignore (Chan.accept ring ~into:client);
  Hashtbl.replace t.rings id ring;
  let txh = Mpsc.attach t.reqs ~producer:client in
  let sctx = Api.ctx api t.serve_dom in
  let size =
    match Blockif.size t.target sctx with Ok n -> n | Error _ -> 0
  in
  let blocksize =
    match Blockif.blocksize t.target sctx with Ok n -> n | Error _ -> 512
  in
  let pending : (int, int * bytes) Hashtbl.t = Hashtbl.create 8 in
  let next_seq = ref 0 in
  let reqs = ref 0 and polls = ref 0 and drops = ref 0 and stale = ref 0 in
  (* The proxy is synchronous: exactly one tag is awaited at a time, and
     the sequence byte wraps every 256 requests. A response for any other
     tag belongs to a roundtrip that already timed out — stashing it
     would let a future request with the same (wrapped) tag consume old
     data, so drop it on the floor. *)
  let stash ctx ~want =
    List.iter
      (fun msg ->
        match Storewire.Blkresp.parse ctx msg with
        | Ok { Storewire.Blkresp.tag; status; payload } ->
          if tag = want then Hashtbl.replace pending tag (status, payload)
          else incr stale
        | Error _ -> ())
      (Chan.recv_batch ~account:false ring ())
  in
  let roundtrip ctx ~op ~block payload =
    let tag = (id lsl 8) lor (!next_seq land 0xff) in
    next_seq := !next_seq + 1;
    incr reqs;
    let req = Storewire.Blkreq.build ctx ~op ~tag ~block payload in
    if not (Mpsc.send_or_drop ~account:false txh req) then begin
      incr drops;
      fault "storechan: request ring full"
    end
    else begin
      let rec await n =
        match Hashtbl.find_opt pending tag with
        | Some (status, rpayload) ->
          Hashtbl.remove pending tag;
          if status = Storewire.Blkresp.status_ok then Ok rpayload
          else fault "storechan: remote block error"
        | None ->
          if n >= max_polls then fault "storechan: timed out awaiting response"
          else begin
            incr polls;
            stash ctx ~want:tag;
            if not (Hashtbl.mem pending tag) then Scheduler.yield ();
            await (n + 1)
          end
      in
      await 0
    end
  in
  let iface =
    Blockif.methods
      ~read:(fun ctx block ->
        roundtrip ctx ~op:Storewire.op_read ~block Bytes.empty)
      ~write:(fun ctx block data ->
        let* _ = roundtrip ctx ~op:Storewire.op_write ~block data in
        Ok ())
      ~flush:(fun ctx ->
        let* r = roundtrip ctx ~op:Storewire.op_flush ~block:0 Bytes.empty in
        if Bytes.length r >= 4 then Ok (Wire.get32 r 0) else Ok 0)
      ~size:(fun _ctx -> Ok size)
      ~blocksize:(fun () -> blocksize)
      ~stats:(fun () -> [ !reqs; !polls; !drops; !stale ])
  in
  let inst =
    Instance.create api.Api.registry ~class_name:"store.proxy"
      ~domain:client.Domain.id [ iface ]
  in
  ignore
    (Storereg.register ~machine:api.Api.machine ~name ~kind:Storereg.Proxy
       ~lower:(Pm_names.Path.to_string t.target.Blockif.path)
       ~instance:inst ~domain:client.Domain.id ());
  inst

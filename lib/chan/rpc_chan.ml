module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx
module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost
module Obs = Pm_obs.Obs
module Scheduler = Pm_threads.Scheduler
module Wire = Pm_components.Wire

let fault msg = Error (Oerror.Fault msg)

let status_ok = 0

type conn = {
  api : Api.t;
  client_dom : Domain.t;
  server_dom : Domain.t;
  req : Chan.t;
  resp : Chan.t;
}

let request_chan conn = conn.req

(* each direction's ring: 64 slots of a page's worth of batch *)
let ring_slots = 64
let ring_slot_size = 4096

let connect api ~client ~server () =
  let machine = api.Api.machine and vmem = api.Api.vmem in
  let ring name mode producer =
    Chan.create machine vmem ~name ~slots:ring_slots ~slot_size:ring_slot_size ~mode
      ~producer ()
  in
  let req = ring "rpc.req" Chan.Doorbell client in
  ignore (Chan.accept req ~into:server);
  let resp = ring "rpc.resp" Chan.Poll server in
  ignore (Chan.accept resp ~into:client);
  { api; client_dom = client; server_dom = server; req; resp }

(* ------------------------------------------------------------------ *)
(* Batch assembly: [count(2)] then per call [len(2)][segment].         *)
(* Prefix words are charged as component accesses; the segments'       *)
(* bytes were charged by Wire build/parse, and the rings run           *)
(* unaccounted, so each byte is paid for once per side.                *)
(* The batch header carries the Trace rid field after the count, which *)
(* the receiving side's iter re-establishes as the ambient scope.      *)
(* ------------------------------------------------------------------ *)

module Trace = Pm_journal.Trace

let assemble ctx segs =
  let rl = Trace.rid_len () in
  let n = List.length segs in
  let total =
    List.fold_left (fun acc s -> acc + 2 + Bytes.length s) (2 + rl) segs
  in
  let b = Bytes.create total in
  Bytes.set_uint16_be b 0 n;
  Trace.write_rid b 2;
  let off = ref (2 + rl) in
  List.iter
    (fun s ->
      let len = Bytes.length s in
      Bytes.set_uint16_be b !off len;
      Bytes.blit s 0 b (!off + 2) len;
      off := !off + 2 + len)
    segs;
  Call_ctx.access ctx (2 * (n + 1));
  b

(* Split segments into chunks that fit one ring slot, preserving order. *)
let chunk ~slot_size segs =
  let hdr = 2 + Trace.rid_len () in
  let seg_room s = 2 + Bytes.length s in
  List.fold_left
    (fun (chunks, cur, used) s ->
      let need = seg_room s in
      if hdr + need > slot_size then
        invalid_arg "Rpc_chan: marshalled call exceeds the channel slot size";
      if used + need > slot_size then (List.rev cur :: chunks, [ s ], hdr + need)
      else (chunks, s :: cur, used + need))
    ([], [], hdr) segs
  |> fun (chunks, cur, _) ->
  List.rev (match cur with [] -> chunks | _ -> List.rev cur :: chunks)

(* A segment is a transport header ([sport] the call id, [dport] the
   status) and its payload. Building one copies the payload in and
   reading one copies it out of the batch, each copy charged once, and
   the header and checksum as the transport charges them. *)
let segment ctx ~id ~status payload =
  let len = Bytes.length payload in
  let seg = Wire.packet ctx ~headroom:Wire.Transport.header_len ~tailroom:0 payload in
  Wire.Transport.write ctx seg ~off:0 ~sport:id ~dport:status ~len;
  seg

let segment_payload ctx batch ~off ~len =
  match Wire.Transport.parse ctx batch ~off ~len with
  | Error _ as e -> e
  | Ok { Wire.Transport.sport; dport; off; len } ->
    Call_ctx.access ctx len;
    Ok (sport, dport, Bytes.sub batch off len)

(* The batch came from another domain: every header field is checked
   against the batch length before it is used. The segments before the
   first bad field are delivered, none after. *)
let iter_segments ctx batch f =
  let rl = Trace.rid_len () in
  let len = Bytes.length batch in
  if len < 2 + rl then Error (Printf.sprintf "batch header truncated (%d bytes)" len)
  else begin
    let count = Bytes.get_uint16_be batch 0 in
    Call_ctx.access ctx 2;
    Trace.read_rid batch 2;
    let rec walk i off =
      if i > count then Ok ()
      else if off + 2 > len then
        Error (Printf.sprintf "segment %d of %d: length field truncated" i count)
      else begin
        let slen = Bytes.get_uint16_be batch off in
        Call_ctx.access ctx 2;
        if off + 2 + slen > len then
          Error
            (Printf.sprintf "segment %d of %d: %d bytes declared, %d present" i count slen
               (len - off - 2))
        else begin
          f ~off:(off + 2) ~len:slen;
          walk (i + 1) (off + 2 + slen)
        end
      end
    in
    walk 1 (2 + rl)
  end

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let run_handler h ctx args =
  match h ctx args with
  | Ok r -> (status_ok, r)
  | Error e -> (1, Bytes.of_string e)

let serve_batch conn ctx ~procedures ~raw batch =
  let responses = ref [] in
  let served = ref 0 in
  iter_segments ctx batch (fun ~off ~len ->
      match segment_payload ctx batch ~off ~len with
      | Error e -> Logs.warn (fun m -> m "rpc_chan server: %s" e)
      | Ok (id, _, payload) ->
        if Bytes.length payload < 1 then
          Logs.warn (fun m -> m "rpc_chan server: empty request payload")
        else begin
          let nlen = Char.code (Bytes.get payload 0) in
          if Bytes.length payload < 1 + nlen then
            Logs.warn (fun m -> m "rpc_chan server: truncated procedure name")
          else begin
            (* the payload's bytes were charged as they were copied out
               of the batch; slicing them is free *)
            let name = Bytes.sub_string payload 1 nlen in
            let args = Bytes.sub payload (1 + nlen) (Bytes.length payload - 1 - nlen) in
            (* procedure-table dispatch *)
            Call_ctx.charge ctx ctx.Call_ctx.costs.Cost.indirect_call;
            let status, result =
              if nlen = 0 then
                match raw with
                | Some h -> run_handler h ctx args
                | None -> (1, Bytes.of_string "rpc_chan: no raw handler")
              else
                match List.assoc_opt name procedures with
                | Some h -> run_handler h ctx args
                | None -> (1, Bytes.of_string ("no such procedure " ^ name))
            in
            incr served;
            responses := segment ctx ~id ~status result :: !responses
          end
        end)
  |> Result.iter_error (fun e -> Logs.warn (fun m -> m "rpc_chan server: %s" e));
  (match List.rev !responses with
  | [] -> ()
  | segs ->
    List.iter
      (fun group -> Chan.send ~account:false conn.resp (assemble ctx group))
      (chunk ~slot_size:(Chan.slot_size conn.resp) segs));
  !served

(* [serve], returning the inline drain: it serves every pending request
   batch and says how many calls it served *)
let serve_drain api conn ~procedures ~raw =
  let ctx = Api.ctx api conn.server_dom in
  let drain () =
    List.fold_left
      (fun acc batch -> acc + serve_batch conn ctx ~procedures ~raw batch)
      0
      (Chan.recv_batch ~account:false conn.req ())
  in
  ignore
    (Chan.on_doorbell conn.req ~events:api.Api.events ~sched:api.Api.sched (fun () ->
         ignore (drain ())));
  (* catch up with anything flushed before the pop-up existed; the dry
     drain re-arms the doorbell *)
  ignore (drain ());
  drain

let serve api conn ~procedures ?raw () =
  ignore (serve_drain api conn ~procedures ~raw : unit -> int)

(* The channel-backed mode of {!Pm_components.Rpc.create_server}: same
   ["rpc.server"] interface (poll/requests/failures), same classic wire
   format — carried as raw segments over the ring pair instead of stack
   packets, so a caller in another domain pays one doorbell per batch
   rather than a proxy fault per call. Served calls are normally drained
   by the doorbell pop-up; [poll] catches up inline like the stack
   server's poll does. *)
let create_server api conn ~procedures () =
  let requests = ref 0 and failures = ref 0 in
  let raw ctx args =
    match Pm_components.Rpc.raw_handler ~procedures ctx args with
    | Ok resp ->
      incr requests;
      (match Pm_components.Rpc.decode_response resp with
      | Ok (_, status, _) when status <> Pm_components.Rpc.status_ok -> incr failures
      | _ -> ());
      Ok resp
    | Error e ->
      incr failures;
      Error e
  in
  let drain = serve_drain api conn ~procedures:[] ~raw:(Some raw) in
  let iface =
    Iface.make ~name:"rpc.server"
      [
        Iface.fn0 ~name:"poll" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int (drain ())));
        Iface.fn0 ~name:"requests" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int !requests));
        Iface.fn0 ~name:"failures" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int !failures));
      ]
  in
  Instance.create api.Api.registry ~class_name:"chan.rpc_server"
    ~domain:conn.server_dom.Domain.id [ iface ]

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

type client_state = {
  mutable next_id : int;
  mutable buffered : bytes list; (* marshalled request segments, newest first *)
  pending : (int, int * bytes) Hashtbl.t; (* id -> status, payload *)
}

let with_flush_span conn f =
  let machine = conn.api.Api.machine in
  Clock.span (Machine.clock machine) ~costs:(Machine.costs machine)
    ~domain:conn.client_dom.Domain.id ~layer:"chan" ~obj:(Chan.name conn.req)
    ~iface:"chan" ~meth:"batch_flush" f

(* yield-polls a [take] waits for its response before it times out *)
let max_polls = 10_000

let client api conn () =
  let st = { next_id = 1; buffered = []; pending = Hashtbl.create 16 } in
  let submit ctx ~name ~args =
    let nlen = String.length name in
    if nlen > 255 then invalid_arg "Rpc_chan: procedure name too long";
    let id = st.next_id land 0xffff in
    st.next_id <- st.next_id + 1;
    let payload = Bytes.create (1 + nlen + Bytes.length args) in
    Bytes.set payload 0 (Char.chr nlen);
    Bytes.blit_string name 0 payload 1 nlen;
    Bytes.blit args 0 payload (1 + nlen) (Bytes.length args);
    (* the segment's bytes — header and payload — are charged here, as
       the segment is built for the batch under assembly *)
    st.buffered <- segment ctx ~id ~status:0 payload :: st.buffered;
    id
  in
  let drain_responses ctx =
    let warn e = Logs.warn (fun m -> m "rpc_chan client: %s" e) in
    List.iter
      (fun batch ->
        iter_segments ctx batch (fun ~off ~len ->
            match segment_payload ctx batch ~off ~len with
            | Error e -> warn e
            | Ok (id, status, payload) -> Hashtbl.replace st.pending id (status, payload))
        |> Result.iter_error warn)
      (Chan.recv_batch ~account:false conn.resp ())
  in
  let flush ctx =
    match List.rev st.buffered with
    | [] -> 0
    | segs ->
      st.buffered <- [];
      with_flush_span conn (fun () ->
          List.iter
            (fun group -> Chan.send ~account:false conn.req (assemble ctx group))
            (chunk ~slot_size:(Chan.slot_size conn.req) segs);
          (* the doorbell pop-up normally served the batch synchronously
             inside the enqueue; collect whatever is already back *)
          drain_responses ctx;
          List.length segs)
  in
  let take ctx id =
    let rec await polls =
      match Hashtbl.find_opt st.pending id with
      | Some (status, payload) ->
        Hashtbl.remove st.pending id;
        if status = status_ok then Ok (Value.Blob payload)
        else fault ("rpc_chan: remote error: " ^ Bytes.to_string payload)
      | None ->
        drain_responses ctx;
        if Hashtbl.mem st.pending id then await polls
        else if polls >= max_polls then fault "rpc_chan: timed out awaiting response"
        else begin
          (* a blocked server handler finishes under the scheduler *)
          Scheduler.yield ();
          await (polls + 1)
        end
    in
    await 0
  in
  let call ctx ~name ~args =
    let id = submit ctx ~name ~args in
    ignore (flush ctx);
    take ctx id
  in
  (* the elements are [any] in the signature, so their shape is checked
     here, before any call is submitted *)
  let rec decode_calls acc = function
    | [] -> Some (List.rev acc)
    | Value.Pair (Value.Str name, Value.Blob args) :: rest ->
      decode_calls ((name, args) :: acc) rest
    | _ :: _ -> None
  in
  let call_many ctx calls =
    let ids = List.map (fun (name, args) -> submit ctx ~name ~args) calls in
    ignore (flush ctx);
    let rec collect acc = function
      | [] -> Ok (Value.List (List.rev acc))
      | id :: rest ->
        (match take ctx id with
        | Ok v -> collect (v :: acc) rest
        | Error e -> Error e)
    in
    collect [] ids
  in
  let batch_iface =
    Iface.make ~name:"rpc.batch"
      [
        Iface.fn2 ~name:"submit" Iface.Str Iface.Blob ~ret:Vtype.Tint
          (fun ctx name args -> Ok (Value.Int (submit ctx ~name ~args)));
        Iface.fn0 ~name:"flush" ~ret:Vtype.Tint (fun ctx -> Ok (Value.Int (flush ctx)));
        Iface.fn1 ~name:"take" Iface.Int ~ret:Vtype.Tblob take;
        Iface.fn2 ~name:"call" Iface.Str Iface.Blob ~ret:Vtype.Tblob (fun ctx name args ->
            call ctx ~name ~args);
        Iface.fn1 ~name:"call_many" (Iface.List Vtype.Tany) ~ret:(Vtype.Tlist Vtype.Tblob)
          (fun ctx calls ->
            match decode_calls [] calls with
            | Some calls -> call_many ctx calls
            | None -> Error (Oerror.Type_error "call_many([(str, blob); ...])"));
      ]
  in
  let transport_iface =
    Iface.make ~name:"rpc.transport"
      [
        Iface.fn1 ~name:"call" Iface.Blob ~ret:Vtype.Tblob (fun ctx req ->
            call ctx ~name:"" ~args:req);
      ]
  in
  Instance.create api.Api.registry ~class_name:"chan.rpc_client"
    ~domain:conn.client_dom.Domain.id
    [ batch_iface; transport_iface ]

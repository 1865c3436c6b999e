module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Call_ctx = Pm_obj.Call_ctx
module Clock = Pm_machine.Clock
module Path = Pm_names.Path
module Scheduler = Pm_threads.Scheduler

type handler = Call_ctx.t -> bytes -> (bytes, string) result

let fault msg = Error (Oerror.Fault msg)

(* --- wire encoding ------------------------------------------------- *)

let encode_request ~id ~rport ~name payload =
  let nlen = String.length name in
  if nlen > 255 then invalid_arg "Rpc: procedure name too long";
  let b = Bytes.create (7 + nlen + Bytes.length payload) in
  Wire.set32 b 0 id;
  Bytes.set_uint16_be b 4 rport;
  Bytes.set b 6 (Char.chr nlen);
  Bytes.blit_string name 0 b 7 nlen;
  Bytes.blit payload 0 b (7 + nlen) (Bytes.length payload);
  b

let decode_request b =
  if Bytes.length b < 7 then Error "rpc: short request"
  else begin
    let id = Wire.get32 b 0
    and rport = Bytes.get_uint16_be b 4
    and nlen = Char.code (Bytes.get b 6) in
    if Bytes.length b < 7 + nlen then Error "rpc: truncated name"
    else begin
      let name = Bytes.sub_string b 7 nlen in
      let payload = Bytes.sub b (7 + nlen) (Bytes.length b - 7 - nlen) in
      Ok (id, rport, name, payload)
    end
  end

let status_ok = 0
let status_error = 1

let encode_response ~id ~status payload =
  let b = Bytes.create (5 + Bytes.length payload) in
  Wire.set32 b 0 id;
  Bytes.set b 4 (Char.chr status);
  Bytes.blit payload 0 b 5 (Bytes.length payload);
  b

let decode_response b =
  if Bytes.length b < 5 then Error "rpc: short response"
  else
    Ok (Wire.get32 b 0, Char.code (Bytes.get b 4), Bytes.sub b 5 (Bytes.length b - 5))

(* --- server --------------------------------------------------------- *)

(* One classic-wire exchange as a raw [handler]: decode the request,
   dispatch the procedure table, encode the response (application status
   inside, like the stack-based server sends). This is what a channel
   carrier mounts as its [raw] hook to give [create_server] a
   channel-backed mode — see {!Pm_chan.Rpc_chan.create_server}. *)
let raw_handler ~procedures : handler =
 fun ctx req ->
  match decode_request req with
  | Error e -> Error e
  | Ok (id, _rport, name, payload) ->
    (* procedure-table dispatch *)
    Call_ctx.charge ctx ctx.Call_ctx.costs.Pm_machine.Cost.indirect_call;
    let status, result =
      match List.assoc_opt name procedures with
      | None -> (status_error, Bytes.of_string ("no such procedure " ^ name))
      | Some h ->
        (match h ctx payload with
        | Ok r -> (status_ok, r)
        | Error e -> (status_error, Bytes.of_string e))
    in
    Ok (encode_response ~id ~status result)

let stack_call ctx stack meth args = Invoke.call ctx stack ~iface:"stack" ~meth args

let create_server api dom ~stack_path ~port ~procedures =
  let stack = Api.bind_exn api dom (Path.of_string stack_path) in
  let ctx0 = Api.ctx api dom in
  (match stack_call ctx0 stack "bind_port" [ Value.Int port ] with
  | Ok _ -> ()
  | Error e -> failwith ("Rpc.create_server: " ^ Oerror.to_string e));
  let requests = ref 0 and failures = ref 0 in
  let handle_one ctx = function
    | Value.Pair (Value.Pair (Value.Int src, Value.Int _sport), Value.Blob req) ->
      (match decode_request req with
      | Error e ->
        incr failures;
        Logs.warn (fun m -> m "rpc server: %s" e)
      | Ok (id, rport, name, payload) ->
        incr requests;
        let status, result =
          match List.assoc_opt name procedures with
          | None ->
            incr failures;
            (status_error, Bytes.of_string ("no such procedure " ^ name))
          | Some h ->
            (match h ctx payload with
            | Ok r -> (status_ok, r)
            | Error e ->
              incr failures;
              (status_error, Bytes.of_string e))
        in
        let resp = encode_response ~id ~status result in
        (match
           stack_call ctx stack "send"
             [ Value.Int src; Value.Int port; Value.Int rport; Value.Blob resp ]
         with
        | Ok _ -> ()
        | Error e ->
          incr failures;
          Logs.warn (fun m -> m "rpc server: reply failed: %s" (Oerror.to_string e))))
    | _ ->
      incr failures;
      Logs.warn (fun m -> m "rpc server: malformed mailbox entry")
  in
  let iface =
    Iface.make ~name:"rpc.server"
      [
        Iface.fn0 ~name:"poll" ~ret:Vtype.Tint (fun ctx ->
            match stack_call ctx stack "recv" [ Value.Int port ] with
            | Ok (Value.List entries) ->
              List.iter (handle_one ctx) entries;
              Ok (Value.Int (List.length entries))
            | Ok _ -> fault "rpc server: recv shape"
            | Error e -> Error e);
        Iface.fn0 ~name:"requests" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int !requests));
        Iface.fn0 ~name:"failures" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int !failures));
      ]
  in
  Instance.create api.Api.registry ~class_name:"toolbox.rpc_server"
    ~domain:dom.Domain.id [ iface ]

(* --- client --------------------------------------------------------- *)

type client_state = {
  mutable next_id : int;
  pending : (int, int * bytes) Hashtbl.t; (* id -> status, payload *)
  measured : Value.t ref;
      (* the "rpc" interface's state pointer, Pair (Int calls, Int
         cycles): where add_measurement finds them after the fact *)
}

let client_state () =
  {
    next_id = 1;
    pending = Hashtbl.create 8;
    measured = ref (Value.Pair (Value.Int 0, Value.Int 0));
  }

let count_call st cycles =
  match !(st.measured) with
  | Value.Pair (Value.Int calls, Value.Int total) ->
    st.measured := Value.Pair (Value.Int (calls + 1), Value.Int (total + cycles))
  | _ -> ()

(* Both clients export the same ["rpc"] interface over their own carrier. *)
let client_object api dom st call =
  let iface =
    Iface.make ~state:st.measured ~name:"rpc"
      [ Iface.fn2 ~name:"call" Iface.Str Iface.Blob ~ret:Vtype.Tblob call ]
  in
  Instance.create api.Api.registry ~class_name:"toolbox.rpc_client"
    ~domain:dom.Domain.id [ iface ]

(* yield-polls a call waits for its response before it times out *)
let max_polls = 10_000

let create_client api dom ~stack_path ~port ~server () =
  let server_addr, server_port = server in
  let stack = Api.bind_exn api dom (Path.of_string stack_path) in
  let ctx0 = Api.ctx api dom in
  (match stack_call ctx0 stack "bind_port" [ Value.Int port ] with
  | Ok _ -> ()
  | Error e -> failwith ("Rpc.create_client: " ^ Oerror.to_string e));
  let st = client_state () in
  let drain_mailbox ctx =
    match stack_call ctx stack "recv" [ Value.Int port ] with
    | Ok (Value.List entries) ->
      List.iter
        (fun entry ->
          match entry with
          | Value.Pair (_, Value.Blob resp) ->
            (match decode_response resp with
            | Ok (id, status, payload) -> Hashtbl.replace st.pending id (status, payload)
            | Error e -> Logs.warn (fun m -> m "rpc client: %s" e))
          | _ -> Logs.warn (fun m -> m "rpc client: malformed mailbox entry"))
        entries;
      Ok ()
    | Ok _ -> Error (Oerror.Fault "rpc client: recv shape")
    | Error e -> Error e
  in
  client_object api dom st (fun (ctx : Call_ctx.t) name args ->
      let started = Clock.now ctx.Call_ctx.clock in
      let id = st.next_id in
      st.next_id <- id + 1;
      let req = encode_request ~id ~rport:port ~name args in
      let ( let* ) = Result.bind in
      let* _ =
        stack_call ctx stack "send"
          [ Value.Int server_addr; Value.Int port; Value.Int server_port;
            Value.Blob req ]
      in
      let rec await polls =
        match Hashtbl.find_opt st.pending id with
        | Some (status, payload) ->
          Hashtbl.remove st.pending id;
          count_call st (Clock.now ctx.Call_ctx.clock - started);
          if status = status_ok then Ok (Value.Blob payload)
          else fault ("rpc: remote error: " ^ Bytes.to_string payload)
        | None ->
          if polls >= max_polls then fault "rpc: timed out awaiting response"
          else begin
            let* () = drain_mailbox ctx in
            if Hashtbl.mem st.pending id then await polls
            else begin
              Scheduler.yield ();
              await (polls + 1)
            end
          end
      in
      await 0)

(* A client whose requests ride an arbitrary transport object — e.g. a
   shared-memory channel's ["rpc.transport"] (Rpc_chan) — instead of the
   protocol stack. Same wire format, same failure propagation; only the
   carrier differs. *)
let create_client_via api dom ~transport () =
  let st = client_state () in
  client_object api dom st (fun (ctx : Call_ctx.t) name args ->
      let started = Clock.now ctx.Call_ctx.clock in
      let id = st.next_id in
      st.next_id <- id + 1;
      let req = encode_request ~id ~rport:0 ~name args in
      match
        Invoke.call ctx transport ~iface:"rpc.transport" ~meth:"call" [ Value.Blob req ]
      with
      | Error e -> Error e
      | Ok (Value.Blob resp) ->
        (match decode_response resp with
        | Error e -> fault e
        | Ok (rid, status, payload) ->
          if rid <> id then fault "rpc: response id mismatch"
          else begin
            count_call st (Clock.now ctx.Call_ctx.clock - started);
            if status = status_ok then Ok (Value.Blob payload)
            else fault ("rpc: remote error: " ^ Bytes.to_string payload)
          end)
      | Ok _ -> fault "rpc: transport shape")

let add_measurement client =
  match Instance.get_interface client "rpc" with
  | Some { Iface.state = Some measured; _ } ->
    let read f =
      match !measured with
      | Value.Pair (calls, cycles) -> Ok (f (calls, cycles))
      | _ -> fault "rpc.measure: state pointer shape"
    in
    let iface =
      Iface.make ~name:"rpc.measure"
        [
          Iface.fn0 ~name:"calls" ~ret:Vtype.Tint (fun _ -> read fst);
          Iface.fn0 ~name:"cycles" ~ret:Vtype.Tint (fun _ -> read snd);
        ]
    in
    Instance.add_interface client iface
  | Some _ | None -> invalid_arg "Rpc.add_measurement: not an rpc client"

(* Key-value store: the first whole-system workload.

   State model: every mutation is appended to the lower log as a
   {!Storewire.Record} (put or tombstone), and an in-memory index maps
   key -> log sequence number. [recover] replays the log front-to-back
   to rebuild the index — the log is the store, the index is a cache of
   it. Durability = [flush], which pushes the cache's dirty blocks and
   then the log's superblock down to the device; a net client asks for
   it with a {!Storewire.kv_flush} request.

   [serve] exports the store over the channel-backed network path: a
   {!Pm_net.Netstack_chan} port ring on the receive side, the shared
   transmit group on the send side, requests and responses framed by
   {!Storewire.Kvmsg}. One pop-up thread per doorbell drains the ring —
   net + chan + store + vm + scheduler in a single request path.
   [client], [send] and [replies] are the other end of that protocol: a
   polled reply port and a transmit handle in the client's domain. *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Call_ctx = Pm_obj.Call_ctx
module Chan = Pm_chan.Chan
module Netstack_chan = Pm_net.Netstack_chan
module Netwire = Pm_net.Netwire

let fault msg = Error (Oerror.Fault msg)
let ( let* ) = Result.bind

type state = {
  log : Blockif.lower; (* resolved by path; invoked via iface "log" *)
  index : (string, int) Hashtbl.t;
  mutable puts : int;
  mutable gets : int;
  mutable dels : int;
  mutable recovers : int;
}

let log_call st ctx meth args =
  let* t = Blockif.resolve st.log in
  Invoke.call ctx t ~iface:"log" ~meth args

let append_record st ctx ~op ~key value =
  let rec_bytes = Storewire.Record.build ctx ~op ~key value in
  match log_call st ctx "append" [ Value.Blob rec_bytes ] with
  | Ok (Value.Int seq) -> Ok seq
  | Ok _ -> fault "kv: log append returned non-int"
  | Error e -> Error e

let put_op st ctx ~key ~value =
  let* seq = append_record st ctx ~op:Storewire.rec_put ~key value in
  Hashtbl.replace st.index (Bytes.to_string key) seq;
  st.puts <- st.puts + 1;
  Ok seq

let get_op st ctx ~key =
  st.gets <- st.gets + 1;
  match Hashtbl.find_opt st.index (Bytes.to_string key) with
  | None -> Ok None
  | Some seq ->
    let* v = log_call st ctx "get" [ Value.Int seq ] in
    (match v with
    | Value.Blob rec_bytes ->
      let* r =
        Storewire.Record.parse ctx rec_bytes
        |> Result.map_error (fun e -> Oerror.Fault ("kv: " ^ e))
      in
      Ok (Some r.Storewire.Record.value)
    | _ -> fault "kv: log get returned non-blob")

let del_op st ctx ~key =
  let skey = Bytes.to_string key in
  let existed = Hashtbl.mem st.index skey in
  let* _ = append_record st ctx ~op:Storewire.rec_del ~key Bytes.empty in
  Hashtbl.remove st.index skey;
  st.dels <- st.dels + 1;
  Ok existed

let recover_op st ctx =
  let* _ = log_call st ctx "recover" [] in
  let* entries =
    match log_call st ctx "entries" [] with
    | Ok (Value.Int n) -> Ok n
    | Ok _ -> fault "kv: entries returned non-int"
    | Error e -> Error e
  in
  Hashtbl.reset st.index;
  let rec replay i =
    if i >= entries then Ok ()
    else
      let* v = log_call st ctx "get" [ Value.Int i ] in
      match v with
      | Value.Blob rec_bytes ->
        let* r =
          Storewire.Record.parse ctx rec_bytes
          |> Result.map_error (fun e -> Oerror.Fault ("kv: " ^ e))
        in
        let skey = Bytes.to_string r.Storewire.Record.key in
        if r.Storewire.Record.op = Storewire.rec_del then
          Hashtbl.remove st.index skey
        else Hashtbl.replace st.index skey i;
        replay (i + 1)
      | _ -> fault "kv: log get returned non-blob"
  in
  let* () = replay 0 in
  st.recovers <- st.recovers + 1;
  Ok (Hashtbl.length st.index)

let flush_op st ctx =
  (* the log's uniform block view forwards flush down the whole stack *)
  Blockif.flush st.log ctx

let create api dom ~name ~log () =
  let st =
    {
      log = Blockif.make_lower api dom log;
      index = Hashtbl.create 64;
      puts = 0;
      gets = 0;
      dels = 0;
      recovers = 0;
    }
  in
  let int_result r = Result.map (fun n -> Value.Int n) r in
  let iface =
    Iface.make ~name:"kv"
      [
        Iface.fn2 ~name:"put" Iface.Blob Iface.Blob ~ret:Vtype.Tint (fun ctx key value ->
            int_result (put_op st ctx ~key ~value));
        Iface.fn1 ~name:"get" Iface.Blob ~ret:(Vtype.Tpair (Vtype.Tbool, Vtype.Tblob))
          (fun ctx key ->
            let* v = get_op st ctx ~key in
            match v with
            | Some value -> Ok (Value.Pair (Value.Bool true, Value.Blob value))
            | None -> Ok (Value.Pair (Value.Bool false, Value.Blob Bytes.empty)));
        Iface.fn1 ~name:"del" Iface.Blob ~ret:Vtype.Tbool (fun ctx key ->
            Result.map (fun existed -> Value.Bool existed) (del_op st ctx ~key));
        Iface.fn0 ~name:"count" ~ret:Vtype.Tint (fun _ ->
            Ok (Value.Int (Hashtbl.length st.index)));
        Iface.fn0 ~name:"flush" ~ret:Vtype.Tint (fun ctx -> int_result (flush_op st ctx));
        Iface.fn0 ~name:"recover" ~ret:Vtype.Tint (fun ctx ->
            int_result (recover_op st ctx));
        Iface.fn0 ~name:"stats" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
            Ok
              (Value.List
                 (List.map
                    (fun n -> Value.Int n)
                    [ st.puts; st.gets; st.dels; st.recovers ])));
      ]
  in
  let inst =
    Instance.create api.Api.registry ~class_name:"store.kv"
      ~domain:dom.Domain.id [ iface ]
  in
  ignore
    (Storereg.register ~machine:api.Api.machine ~name ~kind:Storereg.Kv ~lower:log
       ~instance:inst ~domain:dom.Domain.id ());
  inst

(* ------------------------------------------------------------------ *)
(* Network service: KV over the channel-backed net path                 *)
(* ------------------------------------------------------------------ *)

type server = {
  port : int;
  mutable requests : int;
  mutable bad : int;
  mutable replies_dropped : int;
}

let exec_request kv ctx (req : Storewire.Kvmsg.req) =
  let open Storewire in
  if req.Kvmsg.op = kv_get then
    match
      Invoke.call ctx kv ~iface:"kv" ~meth:"get" [ Value.Blob req.Kvmsg.key ]
    with
    | Ok (Value.Pair (Value.Bool true, Value.Blob v)) -> (Kvmsg.status_ok, v)
    | Ok _ -> (Kvmsg.status_not_found, Bytes.empty)
    | Error _ -> (Kvmsg.status_error, Bytes.empty)
  else if req.Kvmsg.op = kv_put then
    match
      Invoke.call ctx kv ~iface:"kv" ~meth:"put"
        [ Value.Blob req.Kvmsg.key; Value.Blob req.Kvmsg.value ]
    with
    | Ok _ -> (Kvmsg.status_ok, Bytes.empty)
    | Error _ -> (Kvmsg.status_error, Bytes.empty)
  else if req.Kvmsg.op = kv_del then
    match
      Invoke.call ctx kv ~iface:"kv" ~meth:"del" [ Value.Blob req.Kvmsg.key ]
    with
    | Ok (Value.Bool true) -> (Kvmsg.status_ok, Bytes.empty)
    | Ok _ -> (Kvmsg.status_not_found, Bytes.empty)
    | Error _ -> (Kvmsg.status_error, Bytes.empty)
  else
    match Invoke.call ctx kv ~iface:"kv" ~meth:"flush" [] with
    | Ok _ -> (Kvmsg.status_ok, Bytes.empty)
    | Error _ -> (Kvmsg.status_error, Bytes.empty)

(* [serve api dom ~kv ~net ~port ()] binds [port]'s receive ring to
   [dom] and answers every request with a response sent back through
   the shared transmit group. *)
let serve api dom ~kv ~net ~port () =
  let* chan =
    Netstack_chan.bind net ~port ~owner:dom ()
    |> Result.map_error (fun e -> Oerror.Fault e)
  in
  let txh = Netstack_chan.attach_tx net ~producer:dom in
  let srv = { port; requests = 0; bad = 0; replies_dropped = 0 } in
  let drain () =
    let ctx = Api.ctx api dom in
    List.iter
      (fun msg ->
        match Netwire.Delivery.parse ctx msg with
        | Error _ -> srv.bad <- srv.bad + 1
        | Ok { Netwire.Delivery.src; sport; payload } ->
          (* server-side work is the request's "kv" span: decode, store
             invocation (log/cache/... spans nest inside), response. The
             reply's submit runs the stack's send, which is "net" work,
             so it follows the span. *)
          let reply =
            Blockif.traced_span api "kv" (fun () ->
                match Storewire.Kvmsg.parse_req ctx payload with
                | Error _ -> None
                | Ok req ->
                  srv.requests <- srv.requests + 1;
                  let status, rpayload = exec_request kv ctx req in
                  Some (Storewire.Kvmsg.build_resp ctx ~status rpayload))
          in
          (match reply with
          | None -> srv.bad <- srv.bad + 1
          | Some resp ->
            if not (Netstack_chan.submit txh ctx ~dst:src ~sport:port ~dport:sport resp)
            then srv.replies_dropped <- srv.replies_dropped + 1))
      (Chan.recv_batch ~account:false chan ())
  in
  ignore
    (Chan.on_doorbell chan ~events:api.Api.events ~sched:api.Api.sched (fun () ->
         drain ()));
  Ok (srv, drain)

(* ------------------------------------------------------------------ *)
(* Client: requests from a user domain, replies on a polled port        *)
(* ------------------------------------------------------------------ *)

type client = {
  api : Api.t;
  dom : Domain.t; (* the client's domain *)
  net : Netstack_chan.t;
  ring : Chan.t; (* the reply port's receive ring *)
  txh : Pm_chan.Mpsc.tx;
  port : int; (* the reply port *)
  dst : int; (* the server's address and port *)
  dport : int;
}

(** [client api dom ~net ~port ~dst ~dport] binds [port]'s receive ring
    to [dom] in [Poll] mode and attaches [dom] to the stack's transmit
    group: a client of the server at [dst]:[dport]. *)
let client api dom ~net ~port ~dst ~dport =
  let* ring =
    Netstack_chan.bind net ~port ~owner:dom ~mode:Chan.Poll ()
    |> Result.map_error (fun e -> Oerror.Fault e)
  in
  let txh = Netstack_chan.attach_tx net ~producer:dom in
  Ok { api; dom; net; ring; txh; port; dst; dport }

let switch_to c dom =
  Pm_machine.Mmu.switch_context
    (Pm_machine.Machine.mmu c.api.Api.machine)
    dom.Domain.id

(** [send c ~op ~key value] builds one request in the client's domain
    and submits it on the client's transmit sub-ring, then switches back
    to the kernel's domain and drains the transmit group into the stack.
    [false] when the sub-ring was full. The server answers once the
    caller steps the kernel. *)
let send c ~op ~key value =
  switch_to c c.dom;
  let ctx = Api.ctx c.api c.dom in
  let req =
    Storewire.Kvmsg.build_req ctx ~op ~key:(Bytes.of_string key)
      (Bytes.of_string value)
  in
  let sent =
    Netstack_chan.submit c.txh ctx ~dst:c.dst ~sport:c.port ~dport:c.dport req
  in
  switch_to c c.api.Api.kernel_domain;
  ignore (Netstack_chan.drain_tx c.net);
  sent

(** [replies c] drains the reply ring in the client's domain, oldest
    first, parsing each delivery and the response inside it, then
    switches back to the kernel's domain. The ring is drained with its
    accounting on, so the payload bytes are charged there and again by
    the parsers. *)
let replies c =
  switch_to c c.dom;
  let ctx = Api.ctx c.api c.dom in
  let parse msg =
    match Netwire.Delivery.parse ctx msg with
    | Error e -> Error ("bad delivery frame: " ^ e)
    | Ok { Netwire.Delivery.payload; _ } ->
      Storewire.Kvmsg.parse_resp ctx payload
      |> Result.map_error (fun e -> "bad kv response: " ^ e)
  in
  let out = List.map parse (Chan.recv_batch c.ring ()) in
  switch_to c c.api.Api.kernel_domain;
  out

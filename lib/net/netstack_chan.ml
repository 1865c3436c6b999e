module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Nic = Pm_machine.Nic
module Chan = Pm_chan.Chan
module Mpsc = Pm_chan.Mpsc

type port = {
  port : int;
  chan : Chan.t;
  sink : Instance.t;
}

type t = {
  api : Api.t;
  stack : Instance.t;
  stack_domain : Domain.t;
  rx_slots : int;
  ports : (int, port) Hashtbl.t;
  mutable txg : Mpsc.t option;
  mutable tx_sent : int;
  mutable tx_failed : int;
}

(* every ring's slot holds one NIC frame, its size rounded up to a word *)
let slot_size = (Nic.mtu + 3) / 4 * 4
let tx_slots = 64

let create api ~stack ~stack_domain ?(rx_slots = 64) () =
  {
    api;
    stack;
    stack_domain;
    rx_slots;
    ports = Hashtbl.create 8;
    txg = None;
    tx_sent = 0;
    tx_failed = 0;
  }

let ports t = List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) t.ports [])

(* ------------------------------------------------------------------ *)
(* Receive side: one SPSC ring per bound port                          *)
(* ------------------------------------------------------------------ *)

(* The object the stack delivers to instead of the port's mailbox: it
   lives in the stack's own domain, so delivery is a plain dispatch —
   the crossing to the application happens through the ring. The stack
   hands it the payload where it lies in the received frame; building
   the ring message is the receive's one payload copy. *)
let sink_object api ~stack_domain chan =
  let iface =
    Iface.make ~name:"netsink"
      [
        Iface.meth ~name:"deliver"
          ~args:[ Vtype.Tint; Vtype.Tint; Pm_components.Stack.view_type ]
          ~ret:Vtype.Tunit (fun ctx -> function
          | [ Value.Int src; Value.Int sport;
              Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame) ] ->
            let msg = Netwire.Delivery.build ctx ~src ~sport frame ~off ~len in
            (* full ring = application not keeping up: drop like a NIC
               would (counted in the ring's stats) rather than stall the
               stack *)
            ignore (Chan.send_or_drop ~account:false chan msg);
            Ok Value.Unit
          | _ -> Error (Oerror.Type_error "netsink.deliver: bad arguments"));
      ]
  in
  Instance.create api.Api.registry ~class_name:"net.sink"
    ~domain:stack_domain.Domain.id [ iface ]

let stack_call t meth args =
  let ctx = Api.ctx t.api t.stack_domain in
  match Invoke.call ctx t.stack ~iface:"stack" ~meth args with
  | Ok v -> Ok v
  | Error e -> Error (Oerror.to_string e)

let ( let* ) = Result.bind

let bind t ~port ~owner ?(mode = Chan.Doorbell) () =
  if Hashtbl.mem t.ports port then
    Error (Printf.sprintf "net: port %d already channel-bound" port)
  else
    let* _ = stack_call t "bind_port" [ Value.Int port ] in
    let chan =
      Chan.create t.api.Api.machine t.api.Api.vmem
        ~name:(Printf.sprintf "net.rx.%d" port)
        ~slots:t.rx_slots ~slot_size ~mode ~producer:t.stack_domain ()
    in
    ignore (Chan.accept chan ~into:owner);
    let sink = sink_object t.api ~stack_domain:t.stack_domain chan in
    let* _ =
      stack_call t "attach_port"
        [ Value.Int port; Value.Handle (Instance.handle sink) ]
    in
    Hashtbl.replace t.ports port { port; chan; sink };
    Ok chan

let unbind t ~port =
  match Hashtbl.find_opt t.ports port with
  | None -> Error (Printf.sprintf "net: port %d not channel-bound" port)
  | Some _ ->
    let* _ = stack_call t "detach_port" [ Value.Int port ] in
    let* _ = stack_call t "unbind_port" [ Value.Int port ] in
    Hashtbl.remove t.ports port;
    Ok ()

(* ------------------------------------------------------------------ *)
(* Transmit side: one MPSC group into the stack                        *)
(* ------------------------------------------------------------------ *)

let drain_tx t =
  match t.txg with
  | None -> 0
  | Some g ->
    let ctx = Api.ctx t.api t.stack_domain in
    let msgs = Mpsc.recv_batch ~account:false g () in
    List.iter
      (fun msg ->
        match Netwire.Txreq.parse ctx msg with
        | Error e ->
          t.tx_failed <- t.tx_failed + 1;
          Logs.warn (fun m -> m "net: bad txreq: %s" e)
        | Ok { Netwire.Txreq.dst; sport; dport; off; len } ->
          (* the stack reads the payload where it lies in the message *)
          (match
             Invoke.call ctx t.stack ~iface:"stack" ~meth:"send"
               [
                 Value.Int dst; Value.Int sport; Value.Int dport;
                 Pm_components.Stack.view msg ~off ~len;
               ]
           with
          | Ok _ -> t.tx_sent <- t.tx_sent + 1
          | Error e ->
            t.tx_failed <- t.tx_failed + 1;
            Logs.warn (fun m -> m "net: tx send failed: %s" (Oerror.to_string e))))
      msgs;
    List.length msgs

let tx_group t =
  match t.txg with
  | Some g -> g
  | None ->
    let g =
      Mpsc.create t.api.Api.machine t.api.Api.vmem ~name:"net.tx"
        ~slots:tx_slots ~slot_size ~consumer:t.stack_domain ()
    in
    t.txg <- Some g;
    ignore
      (Mpsc.on_doorbell g ~events:t.api.Api.events ~sched:t.api.Api.sched
         (fun () -> ignore (drain_tx t)));
    g

let attach_tx t ~producer = Mpsc.attach (tx_group t) ~producer

let set_tx_mode t mode = Mpsc.set_mode (tx_group t) mode

let submit txh ctx ~dst ~sport ~dport payload =
  let msg = Netwire.Txreq.build ctx ~dst ~sport ~dport payload in
  Mpsc.send_or_drop ~account:false txh msg

let tx_stats t = (t.tx_sent, t.tx_failed)

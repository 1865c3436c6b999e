module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Directory = Pm_nucleus.Directory
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Call_ctx = Pm_obj.Call_ctx
module Path = Pm_names.Path
module Nic = Pm_machine.Nic

let fault msg = Error (Oerror.Fault msg)

(* ------------------------------------------------------------------ *)
(* Endpoint objects                                                    *)
(* ------------------------------------------------------------------ *)

(* the two methods both endpoints export *)
let common chan =
  [
    Iface.fn0 ~name:"pending" ~ret:Vtype.Tint (fun _ ->
        Ok (Value.Int (Chan.pending chan)));
    Iface.fn0 ~name:"stats" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
        let s = Chan.stats chan in
        Ok
          (Value.List
             [
               Value.Int s.Chan.sends;
               Value.Int s.Chan.recvs;
               Value.Int s.Chan.doorbells;
               Value.Int s.Chan.full_blocks;
               Value.Int s.Chan.empty_blocks;
               Value.Int s.Chan.drops;
               Value.Int s.Chan.bad_lengths;
             ]));
  ]

let tx_endpoint api chan =
  let tx_iface =
    Iface.make ~name:"chan.tx"
      (Iface.fn1 ~name:"send" Iface.Blob ~ret:Vtype.Tunit (fun _ msg ->
           Chan.send chan msg;
           Ok Value.Unit)
      :: common chan)
  in
  (* a tx endpoint can pose as a receive sink ("stack".rx): what a NIC
     driver attaches to; a refused frame is dropped like a real NIC's *)
  let stack_iface =
    Iface.make ~name:"stack"
      [
        Iface.fn1 ~name:"rx" Iface.Blob ~ret:Vtype.Tunit (fun _ frame ->
            ignore (Chan.send_or_drop chan frame);
            Ok Value.Unit);
      ]
  in
  Instance.create api.Api.registry ~class_name:"chan.tx"
    ~domain:(Chan.producer chan).Domain.id
    [ tx_iface; stack_iface ]

let rx_endpoint api chan =
  let dom =
    match Chan.consumer chan with
    | Some d -> d
    | None -> invalid_arg "Chan_svc.rx_endpoint: channel has no consumer"
  in
  let iface =
    Iface.make ~name:"chan.rx"
      (Iface.fn0 ~name:"recv" ~ret:(Vtype.Tlist Vtype.Tblob) (fun _ ->
           Ok (Value.List (List.map (fun b -> Value.Blob b) (Chan.recv_batch chan ()))))
      :: common chan)
  in
  Instance.create api.Api.registry ~class_name:"chan.rx" ~domain:dom.Domain.id
    [ iface ]

(* ------------------------------------------------------------------ *)
(* Factory                                                             *)
(* ------------------------------------------------------------------ *)

let create api ~domain_of_id () =
  let machine = api.Api.machine and vmem = api.Api.vmem in
  let chans : (string, Chan.t) Hashtbl.t = Hashtbl.create 8 in
  let origin (ctx : Call_ctx.t) =
    match domain_of_id ctx.Call_ctx.origin_domain with
    | Some d -> Ok d
    | None ->
      fault (Printf.sprintf "chan factory: unknown domain %d" ctx.Call_ctx.origin_domain)
  in
  let register_endpoint name kind inst =
    let path = Path.of_string (Printf.sprintf "/chan/%s/%s" name kind) in
    match Directory.register api.Api.directory path inst with
    | Ok () -> Ok ()
    | Error e -> fault ("chan factory: " ^ Pm_names.Namespace.error_to_string e)
  in
  let ( let* ) = Result.bind in
  let iface =
    Iface.make ~name:"chanfactory"
      [
        Iface.fn3 ~name:"create" Iface.Str Iface.Int Iface.Int ~ret:Vtype.Thandle
          (fun ctx name slots slot_size ->
            if Hashtbl.mem chans name then fault ("chan factory: " ^ name ^ " exists")
            else
              let* dom = origin ctx in
              let chan =
                Chan.create machine vmem ~name ~slots ~slot_size ~producer:dom ()
              in
              let tx = tx_endpoint api chan in
              let* () = register_endpoint name "tx" tx in
              Hashtbl.replace chans name chan;
              Ok (Value.Handle (Instance.handle tx)));
        Iface.fn1 ~name:"accept" Iface.Str ~ret:Vtype.Thandle (fun ctx name ->
            match Hashtbl.find_opt chans name with
            | None -> fault ("chan factory: no such channel " ^ name)
            | Some chan -> (
              let* dom = origin ctx in
              match Chan.accept chan ~into:dom with
              | exception Invalid_argument m -> fault m
              | _base ->
                let rx = rx_endpoint api chan in
                let* () = register_endpoint name "rx" rx in
                Ok (Value.Handle (Instance.handle rx))));
        Iface.fn0 ~name:"list" ~ret:(Vtype.Tlist Vtype.Tstr) (fun _ ->
            Ok
              (Value.List
                 (Hashtbl.fold (fun name _ acc -> Value.Str name :: acc) chans []
                 |> List.sort compare)));
      ]
  in
  Instance.create api.Api.registry ~class_name:"chan.factory"
    ~domain:api.Api.kernel_domain.Domain.id [ iface ]

(* ------------------------------------------------------------------ *)
(* Channel-backed receive path                                         *)
(* ------------------------------------------------------------------ *)

let bridge api ~producer ~consumer ~stack () =
  (* 64 slots, each one NIC frame rounded up to a word *)
  let chan =
    Chan.create api.Api.machine api.Api.vmem ~name:"rx-bridge" ~slots:64
      ~slot_size:((Nic.mtu + 3) / 4 * 4) ~producer ()
  in
  ignore (Chan.accept chan ~into:consumer);
  let tx = tx_endpoint api chan in
  let ctx = Api.ctx api consumer in
  ignore
    (Chan.on_doorbell chan ~events:api.Api.events ~sched:api.Api.sched (fun () ->
         (* frames were paid for on enqueue; the stack's own parsing
            charges the consumer-side reads *)
         match Chan.recv_batch ~account:false chan () with
         | [] -> ()
         | frames ->
           let args = [ Value.List (List.map (fun f -> Value.Blob f) frames) ] in
           (match Invoke.call ctx stack ~iface:"stack" ~meth:"rx_batch" args with
           | Ok _ -> ()
           | Error e ->
             Logs.warn (fun m ->
                 m "chan bridge: rx_batch failed: %s" (Oerror.to_string e)))));
  (tx, chan)

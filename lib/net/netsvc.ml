module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Directory = Pm_nucleus.Directory
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx
module Path = Pm_names.Path
module Chan = Pm_chan.Chan
module Chan_svc = Pm_chan.Chan_svc
module Mpsc = Pm_chan.Mpsc

let fault msg = Error (Oerror.Fault msg)

(* The per-port transmit endpoint: lives in the owning domain, wraps its
   private MPSC send handle. *)
let tx_endpoint api ~owner txh =
  let ring = Mpsc.sub_ring txh in
  let iface =
    Iface.make ~name:"net.tx"
      [
        Iface.fn4 ~name:"send" Iface.Int Iface.Int Iface.Int Iface.Blob ~ret:Vtype.Tbool
          (fun ctx dst sport dport payload ->
            Ok (Value.Bool (Netstack_chan.submit txh ctx ~dst ~sport ~dport payload)));
        Iface.fn0 ~name:"pending" ~ret:Vtype.Tint (fun _ ->
            Ok (Value.Int (Chan.pending ring)));
        Iface.fn0 ~name:"stats" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
            let s = Chan.stats ring in
            Ok (Value.List [ Value.Int s.Chan.sends; Value.Int s.Chan.drops ]));
      ]
  in
  Instance.create api.Api.registry ~class_name:"net.tx" ~domain:owner.Domain.id
    [ iface ]

let create api net ~domain_of_id () =
  let origin (ctx : Call_ctx.t) =
    match domain_of_id ctx.Call_ctx.origin_domain with
    | Some d -> Ok d
    | None ->
      fault
        (Printf.sprintf "net factory: unknown domain %d" ctx.Call_ctx.origin_domain)
  in
  let register_endpoint port kind inst =
    let path = Path.of_string (Printf.sprintf "/net/%d/%s" port kind) in
    match Directory.register api.Api.directory path inst with
    | Ok () -> Ok ()
    | Error e -> fault ("net factory: " ^ Pm_names.Namespace.error_to_string e)
  in
  let unregister_endpoint port kind =
    ignore
      (Directory.unregister api.Api.directory
         (Path.of_string (Printf.sprintf "/net/%d/%s" port kind)))
  in
  let ( let* ) = Result.bind in
  let iface =
    Iface.make ~name:"netfactory"
      [
        Iface.fn1 ~name:"bind" Iface.Int ~ret:Vtype.Thandle (fun ctx port ->
            let* owner = origin ctx in
            match Netstack_chan.bind net ~port ~owner () with
            | Error e -> fault e
            | Ok chan ->
              let rx = Chan_svc.rx_endpoint api chan in
              let* () = register_endpoint port "rx" rx in
              let txh = Netstack_chan.attach_tx net ~producer:owner in
              let tx = tx_endpoint api ~owner txh in
              let* () = register_endpoint port "tx" tx in
              Ok (Value.Handle (Instance.handle rx)));
        Iface.fn1 ~name:"unbind" Iface.Int ~ret:Vtype.Tunit (fun _ port ->
            match Netstack_chan.unbind net ~port with
            | Error e -> fault e
            | Ok () ->
              unregister_endpoint port "rx";
              unregister_endpoint port "tx";
              Ok Value.Unit);
        Iface.fn0 ~name:"list" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
            Ok (Value.List (List.map (fun p -> Value.Int p) (Netstack_chan.ports net))));
        Iface.fn0 ~name:"drain" ~ret:Vtype.Tint (fun _ ->
            Ok (Value.Int (Netstack_chan.drain_tx net)));
        Iface.fn0 ~name:"stats" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
            let sent, failed = Netstack_chan.tx_stats net in
            Ok (Value.List [ Value.Int sent; Value.Int failed ]));
      ]
  in
  Instance.create api.Api.registry ~class_name:"net.factory"
    ~domain:api.Api.kernel_domain.Domain.id [ iface ]

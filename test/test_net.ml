(* End-to-end tests for the channel-backed network data path (Pm_net):
   per-port receive rings fed by the stack's sink, the shared MPSC
   transmit group draining into the driver, the /shared/net factory with
   endpoints at /net/<port>/{rx,tx}, and the echo-server shape the
   README quick-start shows. *)

open Paramecium

let fixture () =
  let sys = System.create ~seed:0xBEEF ~key_bits:384 () in
  let k = System.kernel sys in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let nsc, svc = System.channel_net sys net () in
  (sys, k, net, nsc, svc)

let switch_to k dom = Mmu.switch_context (Machine.mmu (Kernel.machine k)) dom.Domain.id

let make_packet ctx ~src ~dst ~sport ~dport payload =
  Wire.frame ctx ~src ~dst ~ttl:8 ~proto:Stack.proto_transport
    ~sport ~dport (Bytes.of_string payload)

let inject_packets k ~n ~dport =
  let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
  for i = 1 to n do
    Nic.inject (Kernel.nic k)
      (Bytes.to_string
         (make_packet ctx ~src:13 ~dst:42 ~sport:9 ~dport
            (Printf.sprintf "msg-%d" i)))
  done;
  Kernel.step k ~ticks:(n + 4) ()

(* --- receive: per-port rings ------------------------------------------- *)

let test_rx_ring_poll () =
  let sys, k, net, nsc, _ = fixture () in
  ignore sys;
  let app = System.new_domain sys "app" in
  let chan =
    match Netstack_chan.bind nsc ~port:7 ~owner:app ~mode:Chan.Poll () with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  inject_packets k ~n:5 ~dport:7;
  let msgs = Chan.recv_batch chan () in
  Alcotest.(check int) "all five on the ring" 5 (List.length msgs);
  let ctx = Kernel.ctx k app in
  List.iteri
    (fun i m ->
      match Netwire.Delivery.parse ctx m with
      | Ok { Netwire.Delivery.src; sport; payload } ->
        Alcotest.(check int) "src" 13 src;
        Alcotest.(check int) "sport" 9 sport;
        Alcotest.(check string) "payload"
          (Printf.sprintf "msg-%d" (i + 1))
          (Bytes.to_string payload)
      | Error e -> Alcotest.fail e)
    msgs;
  (* the mailbox stayed empty: the sink intercepted every delivery *)
  let kdom = Kernel.kernel_domain k in
  (match
     Invoke.call_exn (Kernel.ctx k kdom) net.System.stack ~iface:"stack"
       ~meth:"pending" [ Value.Int 7 ]
   with
  | Value.Int n -> Alcotest.(check int) "mailbox empty" 0 n
  | v -> Alcotest.failf "pending returned %s" (Value.to_string v));
  (* an unbound port still drops, a mailbox-bound port still queues *)
  (match Netstack_chan.bind nsc ~port:7 ~owner:app () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double channel-bind must fail");
  match Netstack_chan.unbind nsc ~port:7 with
  | Ok () -> Alcotest.(check (list int)) "no ports left" [] (Netstack_chan.ports nsc)
  | Error e -> Alcotest.fail e

let test_rx_ring_doorbell () =
  let _sys, k, _net, nsc, _ = fixture () in
  let app = System.new_domain _sys "bell-app" in
  let chan =
    match Netstack_chan.bind nsc ~port:8 ~owner:app () with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let got = ref [] in
  let api = Kernel.api k in
  ignore
    (Chan.on_doorbell chan ~events:api.Api.events ~sched:(Kernel.sched k) (fun () ->
         got := !got @ Chan.recv_batch chan ()));
  inject_packets k ~n:3 ~dport:8;
  Alcotest.(check int) "pop-ups drained every delivery" 3 (List.length !got);
  (* flipping to Poll silences the doorbell; messages wait for a drain *)
  Chan.set_mode chan Chan.Poll;
  inject_packets k ~n:2 ~dport:8;
  Alcotest.(check int) "no pop-up in poll mode" 3 (List.length !got);
  Alcotest.(check int) "poll drain picks them up" 2
    (List.length (Chan.recv_batch chan ()))

(* --- transmit: the MPSC group into the driver --------------------------- *)

let test_tx_mpsc_to_wire () =
  let sys, k, net, nsc, _ = fixture () in
  let doms =
    List.map (fun n -> System.new_domain sys n) [ "tx-a"; "tx-b"; "tx-c" ]
  in
  let txs = List.map (fun d -> (d, Netstack_chan.attach_tx nsc ~producer:d)) doms in
  Alcotest.(check int) "three producers on the group" 3
    (Mpsc.producers (Netstack_chan.tx_group nsc));
  let kdom = Kernel.kernel_domain k in
  List.iteri
    (fun i (d, tx) ->
      switch_to k d;
      let ctx = Kernel.ctx k d in
      for j = 1 to 4 do
        Alcotest.(check bool) "submitted" true
          (Netstack_chan.submit tx ctx ~dst:13 ~sport:7 ~dport:9
             (Bytes.of_string (Printf.sprintf "p%d-%d" i j)))
      done)
    txs;
  switch_to k kdom;
  (* the doorbell pop-up drains as submissions land; a final explicit
     drain catches anything enqueued while the group was un-armed *)
  ignore (Netstack_chan.drain_tx nsc);
  (* the Nic completes one transmit DMA per tick *)
  Kernel.step k ~ticks:16 ();
  let sent, failed = Netstack_chan.tx_stats nsc in
  Alcotest.(check int) "all twelve sent" 12 sent;
  Alcotest.(check int) "none failed" 0 failed;
  let frames = Nic.take_transmitted (Kernel.nic k) in
  Alcotest.(check int) "all twelve on the wire" 12 (List.length frames);
  let ctx = Kernel.ctx k kdom in
  List.iter
    (fun f ->
      match Wire.Frame.parse ctx (Bytes.of_string f) ~off:0 ~len:(String.length f) with
      | Ok { Wire.Frame.dst; src; _ } ->
        Alcotest.(check int) "framed for the peer" 13 dst;
        Alcotest.(check int) "from our address" 42 src
      | Error e -> Alcotest.fail e)
    frames;
  (* every submission paid exactly one group reserve *)
  Alcotest.(check int) "reserves" 12
    (Mpsc.stats (Netstack_chan.tx_group nsc)).Mpsc.reserves;
  ignore net

(* --- the /shared/net factory ------------------------------------------- *)

let test_netsvc_factory () =
  let sys, k, _net, _nsc, _svc = fixture () in
  let app = System.new_domain sys "netapp" in
  let factory = Kernel.bind k app "/shared/net" in
  switch_to k app;
  let uctx = Kernel.ctx k app in
  (match Invoke.call_exn uctx factory ~iface:"netfactory" ~meth:"bind" [ Value.Int 7 ] with
  | Value.Handle _ -> ()
  | v -> Alcotest.failf "bind returned %s" (Value.to_string v));
  (match Invoke.call_exn uctx factory ~iface:"netfactory" ~meth:"list" [] with
  | Value.List [ Value.Int 7 ] -> ()
  | v -> Alcotest.failf "list returned %s" (Value.to_string v));
  (* both endpoints live in the name space, owned by the caller *)
  let rx = Kernel.bind k app "/net/7/rx" in
  let tx = Kernel.bind k app "/net/7/tx" in
  inject_packets k ~n:2 ~dport:7;
  switch_to k app;
  (match Invoke.call_exn uctx rx ~iface:"chan.rx" ~meth:"recv" [] with
  | Value.List msgs ->
    Alcotest.(check int) "deliveries via the rx endpoint" 2 (List.length msgs);
    List.iter
      (fun v ->
        match v with
        | Value.Blob b ->
          (match Netwire.Delivery.parse uctx b with
          | Ok d -> Alcotest.(check int) "src" 13 d.Netwire.Delivery.src
          | Error e -> Alcotest.fail e)
        | _ -> Alcotest.fail "blob expected")
      msgs
  | v -> Alcotest.failf "recv returned %s" (Value.to_string v));
  (match
     Invoke.call_exn uctx tx ~iface:"net.tx" ~meth:"send"
       [ Value.Int 13; Value.Int 7; Value.Int 9; Value.Blob (Bytes.of_string "hi") ]
   with
  | Value.Bool true -> ()
  | v -> Alcotest.failf "send returned %s" (Value.to_string v));
  ignore (Invoke.call_exn uctx factory ~iface:"netfactory" ~meth:"drain" []);
  Kernel.step k ~ticks:2 ();
  Alcotest.(check int) "request reached the wire" 1
    (List.length (Nic.take_transmitted (Kernel.nic k)));
  (match Invoke.call_exn uctx factory ~iface:"netfactory" ~meth:"stats" [] with
  | Value.List [ Value.Int sent; Value.Int failed ] ->
    Alcotest.(check int) "sent counted" 1 sent;
    Alcotest.(check int) "none failed" 0 failed
  | v -> Alcotest.failf "stats returned %s" (Value.to_string v));
  (* unbind retires the port and its names *)
  ignore (Invoke.call_exn uctx factory ~iface:"netfactory" ~meth:"unbind" [ Value.Int 7 ]);
  (match Invoke.call_exn uctx factory ~iface:"netfactory" ~meth:"list" [] with
  | Value.List [] -> ()
  | v -> Alcotest.failf "list after unbind returned %s" (Value.to_string v));
  match Kernel.bind k app "/net/7/rx" with
  | exception _ -> ()
  | _ -> Alcotest.fail "rx endpoint must be unregistered"

(* --- the echo server, end to end --------------------------------------- *)

let test_channel_echo_server () =
  let sys, k, _net, nsc, _ = fixture () in
  let app = System.new_domain sys "echo" in
  let rx =
    match Netstack_chan.bind nsc ~port:7 ~owner:app ~mode:Chan.Poll () with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let tx = Netstack_chan.attach_tx nsc ~producer:app in
  inject_packets k ~n:4 ~dport:7;
  (* the server loop: drain the port ring, echo each request back *)
  switch_to k app;
  let ctx = Kernel.ctx k app in
  List.iter
    (fun m ->
      match Netwire.Delivery.parse ctx m with
      | Ok { Netwire.Delivery.src; sport; payload } ->
        ignore
          (Netstack_chan.submit tx ctx ~dst:src ~sport:7 ~dport:sport payload)
      | Error e -> Alcotest.fail e)
    (Chan.recv_batch rx ());
  switch_to k (Kernel.kernel_domain k);
  ignore (Netstack_chan.drain_tx nsc);
  Kernel.step k ~ticks:8 ();
  let frames = Nic.take_transmitted (Kernel.nic k) in
  Alcotest.(check int) "every request echoed" 4 (List.length frames);
  let kctx = Kernel.ctx k (Kernel.kernel_domain k) in
  List.iteri
    (fun i f ->
      let frame = Bytes.of_string f in
      match Wire.Frame.parse kctx frame ~off:0 ~len:(Bytes.length frame) with
      | Error e -> Alcotest.fail e
      | Ok { Wire.Frame.off; len; dst; _ } ->
        Alcotest.(check int) "echo goes back to the requester" 13 dst;
        (match Wire.Net.parse kctx frame ~off ~len with
        | Error e -> Alcotest.fail e
        | Ok { Wire.Net.off; len; _ } ->
          (match Wire.Transport.parse kctx frame ~off ~len with
          | Error e -> Alcotest.fail e
          | Ok { Wire.Transport.sport; dport; off; len } ->
            Alcotest.(check int) "from the service port" 7 sport;
            Alcotest.(check int) "to the requester's port" 9 dport;
            Alcotest.(check string) "payload round-tripped"
              (Printf.sprintf "msg-%d" (i + 1))
              (Bytes.sub_string frame off len))))
    frames

(* --- the ring codecs ----------------------------------------------------- *)

let gen16 = QCheck2.Gen.int_bound 0xffff

let delivery_spec = QCheck2.Gen.(triple gen16 gen16 (Codec_props.gen_bytes 64))

let build_delivery ctx (src, sport, payload) =
  Netwire.Delivery.build ctx ~src ~sport payload ~off:0 ~len:(Bytes.length payload)

let txreq_spec = QCheck2.Gen.(quad gen16 gen16 gen16 (Codec_props.gen_bytes 64))

let build_txreq ctx (dst, sport, dport, payload) =
  Netwire.Txreq.build ctx ~dst ~sport ~dport payload

let codec_props =
  [
    Codec_props.roundtrip "delivery round-trip" ~gen_spec:delivery_spec
      ~build:build_delivery ~parse:Netwire.Delivery.parse
      ~same:(fun (src, sport, payload) (d : Netwire.Delivery.t) ->
        d.src = src && d.sport = sport && Bytes.equal d.payload payload)
      ~rid_at:(Some Netwire.Delivery.header_len);
    Codec_props.hostile "delivery parse on hostile bytes" ~gen_spec:delivery_spec
      ~build:build_delivery ~parse:Netwire.Delivery.parse;
    (* parse leaves the payload in the message and charges its header *)
    Codec_props.roundtrip "txreq round-trip" ~gen_spec:txreq_spec ~build:build_txreq
      ~parse:(fun ctx msg -> Result.map (fun r -> (r, msg)) (Netwire.Txreq.parse ctx msg))
      ~same:(fun (dst, sport, dport, payload) ((r : Netwire.Txreq.t), msg) ->
        r.dst = dst && r.sport = sport && r.dport = dport
        && Bytes.equal (Bytes.sub msg r.off r.len) payload)
      ~rid_at:(Some Netwire.Txreq.header_len)
      ~parse_charge:Netwire.Txreq.header_len;
    Codec_props.hostile "txreq parse on hostile bytes" ~gen_spec:txreq_spec
      ~build:build_txreq ~parse:Netwire.Txreq.parse;
  ]

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "net"
    [
      ( "rx",
        [
          Alcotest.test_case "per-port ring, poll" `Quick test_rx_ring_poll;
          Alcotest.test_case "per-port ring, doorbell" `Quick test_rx_ring_doorbell;
        ] );
      ( "tx",
        [ Alcotest.test_case "mpsc group to the wire" `Quick test_tx_mpsc_to_wire ] );
      ( "factory",
        [ Alcotest.test_case "/shared/net + endpoints" `Quick test_netsvc_factory ] );
      ( "echo",
        [ Alcotest.test_case "channel-backed echo server" `Quick test_channel_echo_server ] );
      ("codecs", codec_props);
    ]

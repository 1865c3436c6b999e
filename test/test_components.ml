(* Tests for the component toolbox: wire formats, allocator, network
   driver, protocol stack, RPC, interposing agents. *)

open Paramecium

let value = Alcotest.testable Value.pp Value.equal

let sys_fixture () = System.create ~key_bits:384 ()

let ctx_fixture () =
  let clock = Clock.create () in
  (clock, Call_ctx.make ~clock ~costs:Cost.unit_costs ~caller_domain:0)

(* --- codegen -------------------------------------------------------------- *)

let test_codegen () =
  let a = Codegen.synthesize ~name:"x" ~size:100 in
  let b = Codegen.synthesize ~name:"x" ~size:100 in
  let c = Codegen.synthesize ~name:"y" ~size:100 in
  Alcotest.(check int) "size" 100 (String.length a);
  Alcotest.(check bool) "deterministic" true (String.equal a b);
  Alcotest.(check bool) "name-dependent" false (String.equal a c);
  let t = Codegen.tamper a ~at:50 in
  Alcotest.(check bool) "tamper changes one byte" false (String.equal a t);
  Alcotest.(check int) "only one byte" 1
    (List.length
       (List.filter Fun.id (List.init 100 (fun i -> a.[i] <> t.[i]))))

(* Pinned from the build that wrote images through a Buffer: every
   certificate digest and every recording covers these bytes. *)
let test_codegen_known_answers () =
  List.iter
    (fun (size, hex) ->
      Alcotest.(check string)
        (Printf.sprintf "echo, %d bytes" size)
        hex
        (Sha256.hex_digest (Codegen.synthesize ~name:"echo" ~size)))
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (1, "35af2d15ebde4d67b29569ec19749e813c76f02286afc5a2a9871c2bfbdaab32");
      (31, "58235aa54682e297ce06489b9f01640dcb2dd2de9cff478b734b73d1086c069d");
      (32, "8cfdf12f7194caff719fcb45927a120d744b98f191b3e26350d603bcc6b1a671");
      (33, "4d705686b74ae69961cd28f88bf54ead2002924f2e475e27080a9a1c03e1db08");
      (100, "e7cd79a5c537c2e854095ca72411aaa5504264c78f83b5d934a49045c73adfd1");
      (4096, "919fb1e5b8f49d688e8487aea75df890fa368b8fec6f409b93f56d2b535542b7");
    ]

(* Each 32-byte block costs its digest's context and result and the
   digest's input string, about 37 words. The image itself is one
   [Bytes] of [size]; at 4 KB it goes straight to the major heap, which
   [Gc.minor_words] does not count. *)
let test_codegen_allocation () =
  let blocks = 4096 / 32 in
  let before = Gc.minor_words () in
  ignore (Codegen.synthesize ~name:"echo" ~size:4096);
  let words = Gc.minor_words () -. before in
  let bound = 40 * blocks in
  if words > float bound then
    Alcotest.failf "synthesize allocated %.0f words for %d blocks, bound %d" words blocks bound

(* --- wire ------------------------------------------------------------------ *)

(* a packet of [payload] with [room] bytes in front for one layer's
   header and [tail] behind it, as [Wire.packet] lays one out *)
let packet ?(tail = 0) ctx ~room payload =
  Wire.packet ctx ~headroom:room ~tailroom:tail (Bytes.of_string payload)

let framed ctx ~dst ~src payload =
  let raw = packet ctx ~room:Wire.Frame.header_len ~tail:Wire.Frame.trailer_len payload in
  Wire.Frame.write ctx raw ~off:0 ~dst ~src ~len:(String.length payload);
  raw

let whole f ctx b = f ctx b ~off:0 ~len:(Bytes.length b)

let test_frame_round_trip () =
  let _, ctx = ctx_fixture () in
  let raw = framed ctx ~dst:7 ~src:9 "some payload" in
  (match whole Wire.Frame.parse ctx raw with
  | Ok { Wire.Frame.dst; src; off; len } ->
    Alcotest.(check int) "dst" 7 dst;
    Alcotest.(check int) "src" 9 src;
    Alcotest.(check string) "payload in place" "some payload" (Bytes.sub_string raw off len)
  | Error e -> Alcotest.fail e)

let test_frame_detects_corruption () =
  let _, ctx = ctx_fixture () in
  let raw = framed ctx ~dst:7 ~src:9 "payload" in
  Bytes.set raw 8 'X';
  (match whole Wire.Frame.parse ctx raw with
  | Error "frame: bad fcs" -> ()
  | _ -> Alcotest.fail "corruption must be detected");
  (match whole Wire.Frame.parse ctx (Bytes.create 3) with
  | Error "frame: truncated" -> ()
  | _ -> Alcotest.fail "truncation must be detected");
  (match whole Wire.Frame.parse ctx (Bytes.make 32 '\000') with
  | Error "frame: bad length" -> ()
  | _ -> Alcotest.fail "length mismatch must be detected");
  match Wire.Frame.parse ctx raw ~off:4 ~len:(Bytes.length raw) with
  | Error "frame: range outside the buffer" -> ()
  | _ -> Alcotest.fail "a range past the buffer must be refused"

let net_packet ctx ~ttl payload =
  let raw = packet ctx ~room:Wire.Net.header_len payload in
  Wire.Net.write ctx raw ~off:0 ~src:1 ~dst:2 ~ttl ~proto:17 ~len:(String.length payload);
  raw

let test_net_round_trip_and_ttl () =
  let _, ctx = ctx_fixture () in
  let raw = net_packet ctx ~ttl:5 "x" in
  (match whole Wire.Net.parse ctx raw with
  | Ok { Wire.Net.src = 1; dst = 2; ttl = 5; proto = 17; off = 10; len = 1 } -> ()
  | Ok _ -> Alcotest.fail "fields wrong"
  | Error e -> Alcotest.fail e);
  (match Wire.Net.decrement_ttl ctx raw ~off:0 with
  | Ok () ->
    (match whole Wire.Net.parse ctx raw with
    | Ok { Wire.Net.ttl = 4; _ } -> ()
    | _ -> Alcotest.fail "ttl not decremented or checksum broken")
  | Error e -> Alcotest.fail e);
  let dying = net_packet ctx ~ttl:1 "" in
  (match Wire.Net.decrement_ttl ctx dying ~off:0 with
  | Error "net: ttl expired" -> ()
  | _ -> Alcotest.fail "ttl expiry must be caught")

let segment ctx ~sport ~dport payload =
  let raw = packet ctx ~room:Wire.Transport.header_len payload in
  Wire.Transport.write ctx raw ~off:0 ~sport ~dport ~len:(String.length payload);
  raw

let test_transport_round_trip () =
  let _, ctx = ctx_fixture () in
  let raw = segment ctx ~sport:100 ~dport:200 "data" in
  (match whole Wire.Transport.parse ctx raw with
  | Ok { Wire.Transport.sport = 100; dport = 200; off; len } ->
    Alcotest.(check string) "payload" "data" (Bytes.sub_string raw off len)
  | Ok _ -> Alcotest.fail "fields wrong"
  | Error e -> Alcotest.fail e);
  Bytes.set raw (Bytes.length raw - 1) '!';
  (match whole Wire.Transport.parse ctx raw with
  | Error "transport: bad checksum" -> ()
  | _ -> Alcotest.fail "payload corruption must be detected")

let test_net_error_paths () =
  let _, ctx = ctx_fixture () in
  (match whole Wire.Net.parse ctx (Bytes.create 3) with
  | Error "net: truncated" -> ()
  | _ -> Alcotest.fail "short net packet must be rejected");
  let raw = net_packet ctx ~ttl:5 "xy" in
  (* lying length word *)
  let lying = Bytes.cat raw (Bytes.of_string "extra") in
  (match whole Wire.Net.parse ctx lying with
  | Error "net: bad length" -> ()
  | _ -> Alcotest.fail "length mismatch must be rejected");
  (* flipped header byte lands on the checksum *)
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 0xff));
  (match whole Wire.Net.parse ctx raw with
  | Error "net: bad checksum" -> ()
  | _ -> Alcotest.fail "header corruption must be rejected");
  match Wire.Net.decrement_ttl ctx (Bytes.create 2) ~off:0 with
  | Error "net: truncated" -> ()
  | _ -> Alcotest.fail "ttl decrement on a stub must be rejected"

let test_transport_error_paths () =
  let _, ctx = ctx_fixture () in
  (match whole Wire.Transport.parse ctx (Bytes.create 5) with
  | Error "transport: truncated" -> ()
  | _ -> Alcotest.fail "short segment must be rejected");
  let raw = segment ctx ~sport:1 ~dport:2 "data" in
  (match Wire.Transport.parse ctx raw ~off:0 ~len:(Bytes.length raw - 1) with
  | Error "transport: bad length" -> ()
  | _ -> Alcotest.fail "truncated payload must be rejected");
  match whole Wire.Transport.parse ctx (Bytes.cat raw (Bytes.of_string "!")) with
  | Error "transport: bad length" -> ()
  | _ -> Alcotest.fail "trailing garbage must be rejected"

let test_rpc_codec_errors () =
  (* the codecs reject malformed frames rather than misparsing them *)
  (match Rpc.decode_request (Bytes.create 3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short request must be rejected");
  let req = Rpc.encode_request ~id:7 ~rport:9 ~name:"proc" (Bytes.of_string "args") in
  (* cut inside the procedure name: header promises more than is there *)
  (match Rpc.decode_request (Bytes.sub req 0 9) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated request must be rejected");
  (match Rpc.decode_request req with
  | Ok (7, 9, "proc", args) -> Alcotest.(check string) "args" "args" (Bytes.to_string args)
  | _ -> Alcotest.fail "well-formed request must decode");
  (match Rpc.decode_response (Bytes.create 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short response must be rejected");
  (* ids are unsigned 32-bit: the high bit survives the round trip *)
  (match Rpc.decode_response (Rpc.encode_response ~id:0xdead_beef ~status:0 Bytes.empty) with
  | Ok (id, _, _) -> Alcotest.(check int) "unsigned id" 0xdead_beef id
  | Error e -> Alcotest.fail e);
  let resp = Rpc.encode_response ~id:7 ~status:Rpc.status_error (Bytes.of_string "boom") in
  match Rpc.decode_response resp with
  | Ok (7, status, payload) ->
    Alcotest.(check int) "status" Rpc.status_error status;
    Alcotest.(check string) "payload" "boom" (Bytes.to_string payload)
  | _ -> Alcotest.fail "well-formed response must decode"

(* framing 100 bytes copies them in (100), writes the header (6) and
   sums header and payload (106) *)
let test_wire_charges_accesses () =
  let clock, ctx = ctx_fixture () in
  let before = Clock.counter clock "component_mem_access" in
  ignore (framed ctx ~dst:1 ~src:2 (String.make 100 'x'));
  let accesses = Clock.counter clock "component_mem_access" - before in
  Alcotest.(check int) "per-byte work recorded" 212 accesses

(* --- allocator --------------------------------------------------------------- *)

let alloc_fixture () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let inst = Allocator.create (Kernel.api k) kdom ~heap_pages:2 in
  (k, Kernel.ctx k kdom, inst)

let test_allocator_alloc_free () =
  let _, ctx, a = alloc_fixture () in
  let alloc n = Value.to_int (Invoke.call_exn ctx a ~iface:"allocator" ~meth:"alloc" [ Value.Int n ]) in
  let free addr = ignore (Invoke.call_exn ctx a ~iface:"allocator" ~meth:"free" [ Value.Int addr ]) in
  let avail () = Value.to_int (Invoke.call_exn ctx a ~iface:"allocator" ~meth:"avail" []) in
  let total = avail () in
  let x = alloc 100 in
  let y = alloc 100 in
  Alcotest.(check bool) "disjoint" true (abs (x - y) >= 100);
  Alcotest.(check bool) "avail dropped" true (avail () < total);
  free x;
  free y;
  Alcotest.(check int) "coalesced back to whole heap" total (avail ());
  (* after full free, a big allocation fits again *)
  let z = alloc (total - 8) in
  Alcotest.(check bool) "big alloc" true (z > 0)

let test_allocator_errors () =
  let _, ctx, a = alloc_fixture () in
  (match Invoke.call ctx a ~iface:"allocator" ~meth:"alloc" [ Value.Int 1_000_000 ] with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "exhaustion must fault");
  (match Invoke.call ctx a ~iface:"allocator" ~meth:"free" [ Value.Int 12345 ] with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "bad free must fault");
  (match Invoke.call ctx a ~iface:"allocator" ~meth:"alloc" [ Value.Int 0 ] with
  | Error (Oerror.Type_error _) -> ()
  | _ -> Alcotest.fail "zero-size alloc rejected")

let test_allocator_reuse_after_free () =
  let _, ctx, a = alloc_fixture () in
  let alloc n = Value.to_int (Invoke.call_exn ctx a ~iface:"allocator" ~meth:"alloc" [ Value.Int n ]) in
  let free addr = ignore (Invoke.call_exn ctx a ~iface:"allocator" ~meth:"free" [ Value.Int addr ]) in
  let x = alloc 64 in
  free x;
  let y = alloc 64 in
  Alcotest.(check int) "first-fit reuses the hole" x y

(* --- networking fixture -------------------------------------------------------- *)

let net_fixture ?(placement = System.Certified) ?(loopback = false) ?(addr = 42) () =
  let sys = sys_fixture () in
  let net = System.setup_networking sys ~placement ~addr ~loopback () in
  (sys, System.kernel sys, net)

let stack_call k dom stack meth args =
  Invoke.call_exn (Kernel.ctx k dom) stack ~iface:"stack" ~meth args

let make_packet ctx ~src ~dst ~sport ~dport payload =
  Wire.frame ctx ~src ~dst ~ttl:8 ~proto:Stack.proto_transport ~sport ~dport
    (Bytes.of_string payload)

let ( let* ) = Result.bind

(* the ports and payload of the frame at [off], read through the three
   parsers where they lie *)
let unwrap ctx frame ~off ~len =
  let* f = Wire.Frame.parse ctx frame ~off ~len in
  let* n = Wire.Net.parse ctx frame ~off:f.Wire.Frame.off ~len:f.Wire.Frame.len in
  let* t = Wire.Transport.parse ctx frame ~off:n.Wire.Net.off ~len:n.Wire.Net.len in
  Ok (t.Wire.Transport.sport, t.Wire.Transport.dport,
      Bytes.sub_string frame t.Wire.Transport.off t.Wire.Transport.len)

(* --- netdrv ----------------------------------------------------------------------- *)

let test_netdrv_rx_to_stack () =
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  ignore (stack_call k kdom net.System.stack "bind_port" [ Value.Int 7 ]);
  let ctx = Kernel.ctx k kdom in
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~src:13 ~dst:42 ~sport:9 ~dport:7 "ping"));
  Kernel.step k ~ticks:2 ();
  (match stack_call k kdom net.System.stack "recv" [ Value.Int 7 ] with
  | Value.List [ Value.Pair (Value.Pair (Value.Int 13, Value.Int 9), Value.Blob b) ] ->
    Alcotest.(check string) "payload" "ping" (Bytes.to_string b)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (* driver stats *)
  (match Invoke.call_exn ctx net.System.driver ~iface:"netdev" ~meth:"stats" [] with
  | Value.Pair (Value.Int rx, Value.Int _) -> Alcotest.(check int) "one rx" 1 rx
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

let test_netdrv_tx () =
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  ignore
    (stack_call k kdom net.System.stack "send"
       [ Value.Int 13; Value.Int 5; Value.Int 6; Value.Blob (Bytes.of_string "out") ]);
  Kernel.step k ~ticks:2 ();
  (match Nic.take_transmitted (Kernel.nic k) with
  | [ frame ] ->
    (match whole Wire.Frame.parse ctx (Bytes.of_string frame) with
    | Ok { Wire.Frame.dst = 13; src = 42; _ } -> ()
    | _ -> Alcotest.fail "frame headers wrong")
  | l -> Alcotest.failf "expected one frame, got %d" (List.length l))

let test_netdrv_mtu_and_errors () =
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  (match Invoke.call_exn ctx net.System.driver ~iface:"netdev" ~meth:"mtu" [] with
  | Value.Int m -> Alcotest.(check int) "mtu" Nic.mtu m
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (match
     Invoke.call ctx net.System.driver ~iface:"netdev" ~meth:"send"
       [ Value.Blob (Bytes.create (Nic.mtu + 1)) ]
   with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "oversize frame must fault");
  (match Invoke.call ctx net.System.driver ~iface:"netdev" ~meth:"attach" [ Value.Str "/nonesuch" ] with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "bad sink path must fault")

let test_netdrv_exclusive_io () =
  let sys, k, _net = net_fixture () in
  ignore sys;
  (* the certified driver holds the NIC exclusively: a second driver
     cannot claim it *)
  (match Netdrv.create (Kernel.api k) (Kernel.kernel_domain k) () with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "second exclusive grant must fail")

(* --- stack ------------------------------------------------------------------------- *)

let test_stack_filters_wrong_destination () =
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  ignore (stack_call k kdom net.System.stack "bind_port" [ Value.Int 7 ]);
  let ctx = Kernel.ctx k kdom in
  Nic.inject (Kernel.nic k)
    (Bytes.to_string (make_packet ctx ~src:13 ~dst:99 ~sport:9 ~dport:7 "not-mine"));
  Kernel.step k ~ticks:2 ();
  (match stack_call k kdom net.System.stack "stats" [] with
  | Value.List [ Value.Int rx_ok; Value.Int dropped; Value.Int _; Value.Int _ ] ->
    Alcotest.(check int) "nothing accepted" 0 rx_ok;
    Alcotest.(check int) "dropped" 1 dropped
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

let test_stack_accepts_broadcast () =
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  ignore (stack_call k kdom net.System.stack "bind_port" [ Value.Int 7 ]);
  let ctx = Kernel.ctx k kdom in
  Nic.inject (Kernel.nic k)
    (Bytes.to_string (make_packet ctx ~src:13 ~dst:0xffff ~sport:9 ~dport:7 "bcast"));
  Kernel.step k ~ticks:2 ();
  Alcotest.check value "broadcast delivered" (Value.Int 1)
    (stack_call k kdom net.System.stack "pending" [ Value.Int 7 ])

let test_stack_drops_corrupt_and_unbound () =
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  ignore (stack_call k kdom net.System.stack "bind_port" [ Value.Int 7 ]);
  (* corrupt FCS *)
  let raw = make_packet ctx ~src:13 ~dst:42 ~sport:9 ~dport:7 "x" in
  Bytes.set raw 10 (Char.chr (Char.code (Bytes.get raw 10) lxor 0xff));
  Nic.inject (Kernel.nic k) (Bytes.to_string raw);
  (* port 8 is not bound *)
  Nic.inject (Kernel.nic k)
    (Bytes.to_string (make_packet ctx ~src:13 ~dst:42 ~sport:9 ~dport:8 "y"));
  Kernel.step k ~ticks:4 ();
  (match stack_call k kdom net.System.stack "stats" [] with
  | Value.List [ Value.Int 0; Value.Int 2; Value.Int 0; Value.Int 0 ] -> ()
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

let test_stack_send_recv_loopback () =
  let _, k, net = net_fixture ~loopback:true () in
  let kdom = Kernel.kernel_domain k in
  ignore (stack_call k kdom net.System.stack "bind_port" [ Value.Int 30 ]);
  ignore
    (stack_call k kdom net.System.stack "send"
       [ Value.Int 42; Value.Int 31; Value.Int 30; Value.Blob (Bytes.of_string "self") ]);
  Kernel.step k ~ticks:4 ();
  (match stack_call k kdom net.System.stack "recv" [ Value.Int 30 ] with
  | Value.List [ Value.Pair (Value.Pair (Value.Int 42, Value.Int 31), Value.Blob b) ] ->
    Alcotest.(check string) "self-delivery" "self" (Bytes.to_string b)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

let test_stack_port_management () =
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  ignore (stack_call k kdom net.System.stack "bind_port" [ Value.Int 5 ]);
  (match
     Invoke.call (Kernel.ctx k kdom) net.System.stack ~iface:"stack" ~meth:"bind_port"
       [ Value.Int 5 ]
   with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "double bind must fault");
  ignore (stack_call k kdom net.System.stack "unbind_port" [ Value.Int 5 ]);
  (match
     Invoke.call (Kernel.ctx k kdom) net.System.stack ~iface:"stack" ~meth:"recv"
       [ Value.Int 5 ]
   with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "recv on unbound port must fault")

let test_stack_layer_replacement () =
  (* swap the transport layer for one that uppercases payloads: dynamic
     reconfiguration of a running composition *)
  let sys, k, _net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let comp = Stack.create api kdom ~addr:50 ~driver_path:"/services/netdrv" in
  let shouting =
    (* the layer contract: encode allocates the frame with room for the
       outer headers and hands the net layer a view of its segment *)
    let encode ctx = function
      | [ Value.Int sport; Value.Int dport; Value.Blob payload ] ->
        let upper = Bytes.of_string (String.uppercase_ascii (Bytes.to_string payload)) in
        let frame = Wire.packet ctx ~headroom:Wire.headroom ~tailroom:Wire.tailroom upper in
        let off = Wire.headroom - Wire.Transport.header_len in
        Wire.Transport.write ctx frame ~off ~sport ~dport ~len:(Bytes.length upper);
        Ok (Stack.view frame ~off ~len:(Wire.Transport.header_len + Bytes.length upper))
      | _ -> Error (Oerror.Type_error "encode")
    in
    let decode ctx = function
      | [ Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame) ] ->
        (match Wire.Transport.parse ctx frame ~off ~len with
        | Ok { Wire.Transport.sport; dport; off; len } ->
          Ok (Value.Pair (Value.Pair (Value.Int sport, Value.Int dport), Stack.view frame ~off ~len))
        | Error e -> Error (Oerror.Fault e))
      | _ -> Error (Oerror.Type_error "decode")
    in
    Iface.make ~name:"layer"
      [
        Iface.meth ~name:"encode" ~args:[ Vtype.Tint; Vtype.Tint; Vtype.Tblob ]
          ~ret:Stack.view_type encode;
        Iface.meth ~name:"decode" ~args:[ Stack.view_type ]
          ~ret:(Vtype.Tpair (Vtype.Tpair (Vtype.Tint, Vtype.Tint), Stack.view_type))
          decode;
      ]
  in
  let replacement =
    Instance.create api.Api.registry ~class_name:"test.shouting" ~domain:kdom.Domain.id
      [ shouting ]
  in
  Stack.replace_layer comp "transport" replacement;
  let stack = Composite.instance comp in
  let ctx = Kernel.ctx k kdom in
  ignore (Invoke.call_exn ctx stack ~iface:"stack" ~meth:"bind_port" [ Value.Int 1 ]);
  ignore
    (Invoke.call_exn ctx stack ~iface:"stack" ~meth:"send"
       [ Value.Int 60; Value.Int 1; Value.Int 2; Value.Blob (Bytes.of_string "quiet") ]);
  Kernel.step k ~ticks:2 ();
  (match Nic.take_transmitted (Kernel.nic k) with
  | [ frame ] ->
    (* decode with the standard layers: payload must be uppercased *)
    (match unwrap ctx (Bytes.of_string frame) ~off:0 ~len:(String.length frame) with
    | Ok (_, _, payload) -> Alcotest.(check string) "uppercased on the wire" "QUIET" payload
    | Error e -> Alcotest.fail e)
  | l -> Alcotest.failf "expected one frame, got %d" (List.length l));
  ignore sys;
  (match Stack.replace_layer comp "bogus" replacement with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown layer rejected")

(* --- rpc -------------------------------------------------------------------------- *)

let rpc_fixture () =
  let sys, k, _net = net_fixture ~loopback:true () in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let procedures =
    [
      ("echo", fun _ctx b -> Ok b);
      ("upper", fun _ctx b -> Ok (Bytes.of_string (String.uppercase_ascii (Bytes.to_string b))));
      ("fail", fun _ctx _ -> Error "application exploded");
    ]
  in
  let server = Rpc.create_server api kdom ~stack_path:"/services/stack" ~port:100 ~procedures in
  let client =
    Rpc.create_client api kdom ~stack_path:"/services/stack" ~port:200 ~server:(42, 100) ()
  in
  (sys, k, server, client)

let run_rpc k body =
  let result = ref None in
  let kdom = Kernel.kernel_domain k in
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"rpc-test" ~domain:kdom.Domain.id (fun () ->
         result := Some (body ())));
  (* pump the server alongside *)
  Kernel.step k ~ticks:100 ();
  !result

let test_rpc_round_trip () =
  let _, k, server, client = rpc_fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"server-pump" ~domain:kdom.Domain.id (fun () ->
         for _ = 1 to 300 do
           ignore (Invoke.call_exn ctx server ~iface:"rpc.server" ~meth:"poll" []);
           Scheduler.yield ()
         done));
  (match
     run_rpc k (fun () ->
         Invoke.call_exn ctx client ~iface:"rpc" ~meth:"call"
           [ Value.Str "upper"; Value.Blob (Bytes.of_string "shout") ])
   with
  | Some (Value.Blob b) -> Alcotest.(check string) "result" "SHOUT" (Bytes.to_string b)
  | _ -> Alcotest.fail "rpc did not complete");
  (* server-side counters *)
  (match Invoke.call_exn ctx server ~iface:"rpc.server" ~meth:"requests" [] with
  | Value.Int n -> Alcotest.(check int) "one request" 1 n
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

let test_rpc_application_error () =
  let _, k, server, client = rpc_fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"server-pump" ~domain:kdom.Domain.id (fun () ->
         for _ = 1 to 300 do
           ignore (Invoke.call_exn ctx server ~iface:"rpc.server" ~meth:"poll" []);
           Scheduler.yield ()
         done));
  let got = ref None in
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"client" ~domain:kdom.Domain.id (fun () ->
         got :=
           Some
             (Invoke.call ctx client ~iface:"rpc" ~meth:"call"
                [ Value.Str "fail"; Value.Blob Bytes.empty ])));
  Kernel.step k ~ticks:100 ();
  (match !got with
  | Some (Error (Oerror.Fault msg)) ->
    Alcotest.(check bool) "remote error surfaced" true
      (String.length msg > 0 && String.sub msg 0 4 = "rpc:")
  | _ -> Alcotest.fail "expected remote fault");
  (* unknown procedure; the first pump may be exhausted, start another *)
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"server-pump2" ~domain:kdom.Domain.id (fun () ->
         for _ = 1 to 300 do
           ignore (Invoke.call_exn ctx server ~iface:"rpc.server" ~meth:"poll" []);
           Scheduler.yield ()
         done));
  let got2 = ref None in
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"client2" ~domain:kdom.Domain.id (fun () ->
         got2 :=
           Some
             (Invoke.call ctx client ~iface:"rpc" ~meth:"call"
                [ Value.Str "nonesuch"; Value.Blob Bytes.empty ])));
  Kernel.step k ~ticks:100 ();
  (match !got2 with
  | Some (Error (Oerror.Fault _)) -> ()
  | _ -> Alcotest.fail "unknown procedure must fault")

let test_rpc_measurement_interface () =
  let _, k, server, client = rpc_fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  (* interface evolution: users bound to "rpc" are untouched *)
  Alcotest.(check (list string)) "before" [ "rpc" ] (Instance.interface_names client);
  Rpc.add_measurement client;
  Alcotest.(check (list string)) "after" [ "rpc"; "rpc.measure" ]
    (Instance.interface_names client);
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"server-pump" ~domain:kdom.Domain.id (fun () ->
         for _ = 1 to 300 do
           ignore (Invoke.call_exn ctx server ~iface:"rpc.server" ~meth:"poll" []);
           Scheduler.yield ()
         done));
  ignore
    (run_rpc k (fun () ->
         Invoke.call_exn ctx client ~iface:"rpc" ~meth:"call"
           [ Value.Str "echo"; Value.Blob (Bytes.of_string "m") ]));
  Alcotest.check value "calls measured" (Value.Int 1)
    (Invoke.call_exn ctx client ~iface:"rpc.measure" ~meth:"calls" []);
  (match Invoke.call_exn ctx client ~iface:"rpc.measure" ~meth:"cycles" [] with
  | Value.Int c -> Alcotest.(check bool) "cycles positive" true (c > 0)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (match Rpc.add_measurement server with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "measurement only fits clients")

(* Measurement state belongs to the client instance, not its handle:
   handles are per registry, so every kernel reuses the same numbers. *)
let test_rpc_measurement_per_kernel () =
  let _, k1, server1, client1 = rpc_fixture () in
  let _, k2, _, client2 = rpc_fixture () in
  Alcotest.(check int) "both clients hold the same handle" (Instance.handle client1)
    (Instance.handle client2);
  Rpc.add_measurement client1;
  Rpc.add_measurement client2;
  let ctx k = Kernel.ctx k (Kernel.kernel_domain k) in
  let kdom1 = Kernel.kernel_domain k1 in
  ignore
    (Scheduler.spawn (Kernel.sched k1) ~name:"server-pump" ~domain:kdom1.Domain.id
       (fun () ->
         for _ = 1 to 300 do
           ignore (Invoke.call_exn (ctx k1) server1 ~iface:"rpc.server" ~meth:"poll" []);
           Scheduler.yield ()
         done));
  ignore
    (run_rpc k1 (fun () ->
         Invoke.call_exn (ctx k1) client1 ~iface:"rpc" ~meth:"call"
           [ Value.Str "echo"; Value.Blob (Bytes.of_string "m") ]));
  let calls k client =
    Invoke.call_exn (ctx k) client ~iface:"rpc.measure" ~meth:"calls" []
  in
  Alcotest.check value "first kernel's client counted its call" (Value.Int 1)
    (calls k1 client1);
  Alcotest.check value "second kernel's client made none" (Value.Int 0) (calls k2 client2);
  (* a third kernel's server holding a client's handle is still no client *)
  let _, k3, _ = net_fixture ~loopback:true () in
  let rec server_at port =
    let s =
      Rpc.create_server (Kernel.api k3) (Kernel.kernel_domain k3)
        ~stack_path:"/services/stack" ~port ~procedures:[]
    in
    if Instance.handle s < Instance.handle client1 then server_at (port + 1) else s
  in
  let server3 = server_at 100 in
  Alcotest.(check int) "the server holds the client's handle" (Instance.handle client1)
    (Instance.handle server3);
  match Rpc.add_measurement server3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "measurement only fits clients, whatever their handle"

(* --- interposition ------------------------------------------------------------------ *)

let test_interpose_forwards_and_counts () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let target = Allocator.create api kdom ~heap_pages:1 in
  let agent = Interpose.wrap api kdom ~target () in
  let ctx = Kernel.ctx k kdom in
  (* superset: all original interfaces plus monitor *)
  Alcotest.(check (list string)) "superset" [ "allocator"; "monitor" ]
    (Instance.interface_names agent);
  let addr = Value.to_int (Invoke.call_exn ctx agent ~iface:"allocator" ~meth:"alloc" [ Value.Int 64 ]) in
  ignore (Invoke.call_exn ctx agent ~iface:"allocator" ~meth:"free" [ Value.Int addr ]);
  Alcotest.check value "calls counted" (Value.Int 2)
    (Invoke.call_exn ctx agent ~iface:"monitor" ~meth:"calls" []);
  ignore (Invoke.call_exn ctx agent ~iface:"monitor" ~meth:"reset" []);
  Alcotest.check value "reset" (Value.Int 0)
    (Invoke.call_exn ctx agent ~iface:"monitor" ~meth:"calls" [])

let test_interpose_hooks_and_overrides () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let target = Allocator.create api kdom ~heap_pages:1 in
  let calls = ref [] and results = ref 0 in
  let deny_free _ctx _args = Error (Oerror.Fault "frees are forbidden here") in
  let agent =
    Interpose.wrap api kdom ~target
      ~on_call:(fun ~iface ~meth _args -> calls := (iface ^ "." ^ meth) :: !calls)
      ~on_result:(fun ~iface:_ ~meth:_ _ _ -> incr results)
      ~overrides:[ ("allocator", "free", deny_free) ]
      ()
  in
  let ctx = Kernel.ctx k kdom in
  let addr = Value.to_int (Invoke.call_exn ctx agent ~iface:"allocator" ~meth:"alloc" [ Value.Int 8 ]) in
  (match Invoke.call ctx agent ~iface:"allocator" ~meth:"free" [ Value.Int addr ] with
  | Error (Oerror.Fault "frees are forbidden here") -> ()
  | _ -> Alcotest.fail "override must replace the method");
  Alcotest.(check (list string)) "hooks saw both"
    [ "allocator.alloc"; "allocator.free" ]
    (List.rev !calls);
  Alcotest.(check int) "result hook fired" 2 !results

let test_interpose_attach_in_namespace () =
  (* the paper's /shared/network scenario: a monitor slipped in front of
     the network device; existing name, new object *)
  let _, k, net = net_fixture () in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let agent = Interpose.packet_monitor api kdom ~target:net.System.driver in
  (match Interpose.attach api ~path:"/shared/network" ~agent with
  | Ok old -> Alcotest.(check bool) "old instance returned" true (old == net.System.driver)
  | Error e -> Alcotest.fail e);
  (* new binds resolve to the agent; traffic through it is observed *)
  let bound = Kernel.bind k kdom "/shared/network" in
  Alcotest.(check bool) "bind gets agent" true (bound == agent);
  let ctx = Kernel.ctx k kdom in
  ignore
    (Invoke.call_exn ctx bound ~iface:"netdev" ~meth:"send"
       [ Value.Blob (Bytes.of_string "0123456789") ]);
  Alcotest.check value "bytes observed" (Value.Int 10)
    (Invoke.call_exn ctx bound ~iface:"monitor" ~meth:"blob_bytes" []);
  (* the send went through to the real driver *)
  Kernel.step k ~ticks:1 ();
  Alcotest.(check int) "frame transmitted" 1
    (List.length (Nic.take_transmitted (Kernel.nic k)))

let test_interpose_stacking () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let target = Allocator.create api kdom ~heap_pages:1 in
  let a1 = Interpose.wrap api kdom ~target () in
  let a2 = Interpose.wrap api kdom ~target:a1 () in
  let ctx = Kernel.ctx k kdom in
  ignore (Invoke.call_exn ctx a2 ~iface:"allocator" ~meth:"avail" []);
  Alcotest.check value "outer saw it" (Value.Int 1)
    (Invoke.call_exn ctx a2 ~iface:"monitor" ~meth:"calls" []);
  Alcotest.check value "inner saw it too" (Value.Int 1)
    (Invoke.call_exn ctx a1 ~iface:"monitor" ~meth:"calls" [])


(* --- allocator model-based property ------------------------------------------ *)

(* random alloc/free sequences against invariants: allocations are
   aligned, in-heap and pairwise disjoint; freeing everything restores
   the full heap (perfect coalescing) *)
let allocator_model_prop =
  let open QCheck2 in
  let gen_op =
    Gen.(
      frequency
        [ (3, map (fun n -> `Alloc (8 + n)) (int_bound 600));
          (2, map (fun i -> `Free i) (int_bound 20)) ])
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:40 ~name:"alloc/free sequences keep invariants"
       Gen.(list_size (int_range 1 40) gen_op)
       (fun ops ->
         let _, ctx, a = alloc_fixture () in
         let total =
           Value.to_int (Invoke.call_exn ctx a ~iface:"allocator" ~meth:"avail" [])
         in
         let live = ref [] in
         let ok = ref true in
         List.iter
           (fun op ->
             match op with
             | `Alloc size -> (
               match Invoke.call ctx a ~iface:"allocator" ~meth:"alloc" [ Value.Int size ] with
               | Ok (Value.Int addr) ->
                 if addr mod 8 <> 0 then ok := false;
                 (* no overlap with any live allocation *)
                 List.iter
                   (fun (base, sz) ->
                     if addr < base + sz && base < addr + size then ok := false)
                   !live;
                 live := (addr, size) :: !live
               | Ok _ -> ok := false
               | Error (Oerror.Fault _) -> () (* exhaustion is legal *)
               | Error _ -> ok := false)
             | `Free i ->
               if !live <> [] then begin
                 let idx = i mod List.length !live in
                 let addr, _ = List.nth !live idx in
                 live := List.filteri (fun j _ -> j <> idx) !live;
                 match Invoke.call ctx a ~iface:"allocator" ~meth:"free" [ Value.Int addr ] with
                 | Ok Value.Unit -> ()
                 | _ -> ok := false
               end)
           ops;
         (* free the rest: heap must coalesce back to one block *)
         List.iter
           (fun (addr, _) ->
             ignore (Invoke.call ctx a ~iface:"allocator" ~meth:"free" [ Value.Int addr ]))
           !live;
         let avail =
           Value.to_int (Invoke.call_exn ctx a ~iface:"allocator" ~meth:"avail" [])
         in
         !ok && avail = total))

(* parser totality: random byte strings, read at any range inside or
   around them, never raise out of the wire parsers — malformed frames
   are Errors, not exceptions *)
let wire_totality_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"wire parsers are total on junk"
       QCheck2.Gen.(triple (string_size (int_range 0 128)) (int_range (-4) 132) (int_range (-4) 132))
       (fun (junk, off, len) ->
         let _, ctx = ctx_fixture () in
         let b = Bytes.of_string junk in
         List.for_all
           (fun (range_off, range_len) ->
             (match Wire.Frame.parse ctx b ~off:range_off ~len:range_len with Ok _ | Error _ -> ());
             (match Wire.Net.parse ctx b ~off:range_off ~len:range_len with Ok _ | Error _ -> ());
             (match Wire.Transport.parse ctx b ~off:range_off ~len:range_len with
             | Ok _ | Error _ -> ());
             match Wire.Net.decrement_ttl ctx (Bytes.copy b) ~off:range_off with
             | Ok () | Error _ -> true)
           [ (0, Bytes.length b); (off, len) ]))

(* --- mangled frames, in place and through the stack --------------------- *)

(* the reasons a layer or the stack's demux names a drop by *)
let named_reason r =
  List.exists
    (fun prefix -> String.starts_with ~prefix r)
    [ "frame: "; "net: "; "transport: "; "port " ]
  || List.mem r [ "frame not for us"; "net not for us"; "unknown protocol" ]

(* every truncation of [frame] and every single-byte flip by [mask] *)
let mangled frame mask =
  let n = Bytes.length frame in
  List.init n (fun t -> Bytes.sub frame 0 t)
  @ List.init n (fun i ->
        let b = Bytes.copy frame in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        b)

(* [m] at offset [k] of a larger buffer whose bytes after [m] are the
   rest of the valid frame: a parser that reads past its range finds
   what it would accept there *)
let embedded ~k ~frame m =
  let n = Bytes.length frame and t = Bytes.length m in
  let b = Bytes.make (k + n + 7) '\xa5' in
  Bytes.blit frame 0 b k n;
  Bytes.blit m 0 b k t;
  b

(* the stack logs each drop as "stack: dropped packet (<reason>)" *)
let drop_reasons logged =
  let prefix = "stack: dropped packet (" in
  List.filter_map
    (fun s ->
      if String.starts_with ~prefix s then
        Some (String.sub s (String.length prefix) (String.length s - String.length prefix - 1))
      else None)
    logged

let with_debug_log f =
  let got = ref [] in
  let report _src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun s ->
            got := s :: !got;
            over ();
            k ())
          fmt)
  in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Debug);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level)
    (fun () -> f got)

let placements =
  lazy
    (List.map
       (fun placement ->
         let _, k, net = net_fixture ~placement () in
         let kdom = Kernel.kernel_domain k in
         ignore (stack_call k kdom net.System.stack "bind_port" [ Value.Int 7 ]);
         (k, kdom, net.System.stack))
       [ System.Certified; System.Sandboxed ])

(* Every truncation and single-byte flip of a valid frame (payloads of
   0–300 B), read by the three parsers at a nonzero offset inside a
   larger buffer and sent through the stack's rx on the certified and
   the sandboxed placement: nothing raises, and each one is rejected
   with an Error naming its layer and dropped, counted in rx_dropped
   under a named reason. The ones' complement fcs catches any one
   changed byte, and a cut frame's length word cannot match. The valid
   frame itself is accepted and delivers the payload sent. *)
let mangled_frames_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12 ~name:"mangled frames are dropped by name"
       QCheck2.Gen.(
         triple (frequency [ (1, pure 0); (1, pure 300); (4, int_range 1 299) ]) (int_range 1 16)
           (int_range 1 255))
       (fun (plen, k, mask) ->
         let _, ctx = ctx_fixture () in
         let payload = String.init plen (fun i -> Char.chr ((i * 7) land 0xff)) in
         let frame = make_packet ctx ~src:13 ~dst:42 ~sport:9 ~dport:7 payload in
         let n = Bytes.length frame in
         let sent = Ok (9, 7, payload) in
         let in_place ~valid m =
           match unwrap ctx (embedded ~k ~frame m) ~off:k ~len:(Bytes.length m) with
           | Ok _ as r -> valid && r = sent
           | Error e -> (not valid) && named_reason e
         in
         let through_stack ~valid (k', kdom, stack) m =
           let stats () =
             match stack_call k' kdom stack "stats" [] with
             | Value.List [ Value.Int ok; Value.Int dropped; _; _ ] -> (ok, dropped)
             | v -> Alcotest.failf "stats returned %s" (Value.to_string v)
           in
           let ok0, dropped0 = stats () in
           with_debug_log (fun logged ->
               match
                 Invoke.call (Kernel.ctx k' kdom) stack ~iface:"stack" ~meth:"rx"
                   [ Value.Blob (Bytes.copy m) ]
               with
               | Error e -> Alcotest.failf "rx failed: %s" (Oerror.to_string e)
               | Ok _ -> (
                 match (stats (), drop_reasons !logged) with
                 | (ok, dropped), [ reason ] when ok = ok0 && dropped = dropped0 + 1 ->
                   (not valid) && named_reason reason
                 | (ok, dropped), [] when valid && ok = ok0 + 1 && dropped = dropped0 -> (
                   match stack_call k' kdom stack "recv" [ Value.Int 7 ] with
                   | Value.List [ Value.Pair (Value.Pair (Value.Int 13, Value.Int 9), Value.Blob b) ]
                     ->
                     Bytes.to_string b = payload
                   | _ -> false)
                 | _ -> false))
         in
         let frames = mangled frame mask in
         List.length frames = 2 * n
         && in_place ~valid:true frame
         && List.for_all (in_place ~valid:false) frames
         && List.for_all
              (fun placement ->
                through_stack ~valid:true placement frame
                && List.for_all (through_stack ~valid:false placement) frames)
              (Lazy.force placements)))

(* One frame through the three layer objects and back. The send charges
   each header, each checksum pass and the one copy of the payload into
   the frame; the receive each header, each checksum pass and the one
   copy out into the mailbox entry. Nothing else touches a byte. *)
let one_copy_accounting_prop =
  let fixture =
    lazy
      (let _, k, _ = net_fixture () in
       let kdom = Kernel.kernel_domain k in
       let comp = Stack.create (Kernel.api k) kdom ~addr:50 ~driver_path:"/services/netdrv" in
       let ctx = Kernel.ctx k kdom in
       ignore (Invoke.call_exn ctx (Composite.instance comp) ~iface:"stack" ~meth:"bind_port"
                 [ Value.Int 2 ]);
       (comp, ctx))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"one frame charges headers, checksums, one copy each way"
       QCheck2.Gen.(string_size ~gen:char (int_range 0 1400))
       (fun payload ->
         let comp, ctx = Lazy.force fixture in
         let p = String.length payload in
         let layer name meth args =
           match Composite.child comp name with
           | Some inst -> Invoke.call_exn ctx inst ~iface:"layer" ~meth args
           | None -> Alcotest.failf "no %s layer" name
         in
         let charged f =
           let before = Call_ctx.accesses ctx in
           let r = f () in
           (r, Call_ctx.accesses ctx - before)
         in
         let frame, sent =
           charged (fun () ->
               let seg = layer "transport" "encode" [ Value.Int 1; Value.Int 2; Value.Blob (Bytes.of_string payload) ] in
               let pkt = layer "net" "encode" [ Value.Int 50; Value.Int 50; Value.Int Stack.proto_transport; seg ] in
               layer "framer" "encode" [ Value.Int 50; Value.Int 50; pkt ])
         in
         let stack = Composite.instance comp in
         let _, received =
           charged (fun () -> Invoke.call_exn ctx stack ~iface:"stack" ~meth:"rx" [ frame ])
         in
         let headers = Wire.Frame.header_len + Wire.Net.header_len + Wire.Transport.header_len in
         (* the fcs covers the frame header and the packet; the net
            checksum its header; the transport checksum the payload *)
         let checksums = (headers + p) + Wire.Net.header_len + p in
         let expected = headers + checksums + p in
         let delivered =
           Invoke.call_exn ctx stack ~iface:"stack" ~meth:"recv" [ Value.Int 2 ]
         in
         sent = expected && received = expected
         && Value.equal delivered
              (Value.List
                 [ Value.Pair (Value.Pair (Value.Int 50, Value.Int 1), Value.Blob (Bytes.of_string payload)) ])))

(* wire round-trip property across all three layers *)
let wire_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"3-layer encapsulation round trips"
       QCheck2.Gen.(
         quad (string_size (int_range 0 200)) (int_bound 0xffff) (int_bound 0xffff)
           (int_bound 0xffff))
       (fun (payload, dst, sport, dport) ->
         let _, ctx = ctx_fixture () in
         let frame =
           Wire.frame ctx ~src:1 ~dst ~ttl:4 ~proto:17 ~sport ~dport (Bytes.of_string payload)
         in
         unwrap ctx frame ~off:0 ~len:(Bytes.length frame) = Ok (sport, dport, payload)))

let () =
  Alcotest.run "components"
    [
      ( "codegen",
        [
          Alcotest.test_case "synthesize/tamper" `Quick test_codegen;
          Alcotest.test_case "synthesize known answers" `Quick test_codegen_known_answers;
          Alcotest.test_case "synthesize allocates a bounded amount per block" `Quick
            test_codegen_allocation;
        ] );
      ( "wire",
        [
          Alcotest.test_case "frame round trip" `Quick test_frame_round_trip;
          Alcotest.test_case "frame corruption" `Quick test_frame_detects_corruption;
          Alcotest.test_case "net + ttl" `Quick test_net_round_trip_and_ttl;
          Alcotest.test_case "transport" `Quick test_transport_round_trip;
          Alcotest.test_case "net error paths" `Quick test_net_error_paths;
          Alcotest.test_case "transport error paths" `Quick test_transport_error_paths;
          Alcotest.test_case "rpc codec errors" `Quick test_rpc_codec_errors;
          Alcotest.test_case "access charging" `Quick test_wire_charges_accesses;
          wire_totality_prop;
          wire_roundtrip_prop;
          mangled_frames_prop;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "alloc/free/coalesce" `Quick test_allocator_alloc_free;
          Alcotest.test_case "errors" `Quick test_allocator_errors;
          Alcotest.test_case "first-fit reuse" `Quick test_allocator_reuse_after_free;
          allocator_model_prop;
        ] );
      ( "netdrv",
        [
          Alcotest.test_case "rx to stack" `Quick test_netdrv_rx_to_stack;
          Alcotest.test_case "tx" `Quick test_netdrv_tx;
          Alcotest.test_case "mtu/errors" `Quick test_netdrv_mtu_and_errors;
          Alcotest.test_case "exclusive io" `Quick test_netdrv_exclusive_io;
        ] );
      ( "stack",
        [
          Alcotest.test_case "filters wrong dst" `Quick
            test_stack_filters_wrong_destination;
          Alcotest.test_case "broadcast" `Quick test_stack_accepts_broadcast;
          Alcotest.test_case "drops corrupt/unbound" `Quick
            test_stack_drops_corrupt_and_unbound;
          Alcotest.test_case "loopback send/recv" `Quick test_stack_send_recv_loopback;
          Alcotest.test_case "port management" `Quick test_stack_port_management;
          Alcotest.test_case "layer replacement" `Quick test_stack_layer_replacement;
          one_copy_accounting_prop;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "round trip" `Quick test_rpc_round_trip;
          Alcotest.test_case "application error" `Quick test_rpc_application_error;
          Alcotest.test_case "measurement interface" `Quick
            test_rpc_measurement_interface;
          Alcotest.test_case "measurement per kernel" `Quick
            test_rpc_measurement_per_kernel;
        ] );
      ( "interpose",
        [
          Alcotest.test_case "forwards and counts" `Quick
            test_interpose_forwards_and_counts;
          Alcotest.test_case "hooks and overrides" `Quick
            test_interpose_hooks_and_overrides;
          Alcotest.test_case "attach in namespace" `Quick
            test_interpose_attach_in_namespace;
          Alcotest.test_case "stacking" `Quick test_interpose_stacking;
        ] );
    ]

(* Network monitoring via interposition — the paper's running example.

   "Building an interposing agent for a network device, /shared/network,
   consists of building an interposing object ... and replace the object
   handle in the name space. All further lookups for /shared/network will
   result in a reference to the interposing agent."

   We boot a system with an in-kernel certified protocol stack, slip a
   monitoring agent in front of the shared network device, replay some
   traffic, and read the monitor's counters — all without touching the
   driver or the stack.

   Run with: dune exec examples/netmon.exe *)

open Paramecium

let say fmt = Printf.printf (fmt ^^ "\n%!")

let make_packet ctx ~dst ~dport payload =
  Wire.frame ctx ~src:13 ~dst ~ttl:8 ~proto:Stack.proto_transport
    ~sport:9 ~dport (Bytes.of_string payload)

let () =
  let sys = System.create ~seed:7 () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let ctx = Kernel.ctx k kdom in

  (* a custom interposer: counts per-method traffic and logs sends *)
  let log = ref [] in
  let agent =
    Interpose.wrap api kdom ~target:net.System.driver
      ~on_call:(fun ~iface ~meth args ->
        if String.equal iface "netdev" && String.equal meth "send" then begin
          match args with
          | [ Value.Blob b ] ->
            log := Printf.sprintf "send %dB" (Bytes.length b) :: !log
          | _ -> ()
        end)
      ()
  in

  (* interpose on the public name: one namespace replace *)
  (match Interpose.attach api ~path:"/services/netdrv" ~agent with
  | Ok old -> say "interposed on /services/netdrv (was %s)" old.Instance.class_name
  | Error e -> failwith e);

  (* traffic: some receives from the wire, some transmits from the stack *)
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"bind_port"
       [ Value.Int 80 ]);
  List.iter
    (fun payload -> Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:80 payload)))
    [ "GET /index"; "GET /style.css"; "GET /logo.png" ];
  Kernel.step k ~ticks:5 ();
  List.iter
    (fun n ->
      ignore
        (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"send"
           [ Value.Int 13; Value.Int 80; Value.Int 9;
             Value.Blob (Bytes.make (100 * n) 'r') ]))
    [ 1; 2; 3 ];
  Kernel.step k ~ticks:5 ();

  (* what did the monitor see? *)
  let monitor meth = Value.to_int (Invoke.call_exn ctx agent ~iface:"monitor" ~meth []) in
  say "monitor: %d calls through the device, %d blob bytes" (monitor "calls")
    (monitor "blob_bytes");
  List.iter (say "  logged: %s") (List.rev !log);

  (* receives were delivered normally... *)
  (match
     Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"recv" [ Value.Int 80 ]
   with
  | Value.List msgs -> say "stack delivered %d requests to port 80" (List.length msgs)
  | v -> failwith (Value.to_string v));
  (* ...and transmits reached the wire *)
  say "%d frames transmitted" (List.length (Nic.take_transmitted (Kernel.nic k)));

  (* note the asymmetry: the driver's rx path calls the *stack*, so only
     transmit traffic flows through the interposed device name; receives
     were observed as stack deliveries. To watch receives too, interpose
     on /services/stack: *)
  let rx_agent = Interpose.packet_monitor api kdom ~target:net.System.stack in
  (match Interpose.attach api ~path:"/services/stack" ~agent:rx_agent with
  | Ok _ -> ()
  | Error e -> failwith e);
  (* the driver re-binds its sink on the next delivery only if it has not
     cached the instance; ours caches, so re-attach explicitly *)
  ignore
    (Invoke.call_exn ctx net.System.driver ~iface:"netdev" ~meth:"attach"
       [ Value.Str "/services/stack" ]);
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:80 "POST /"));
  Kernel.step k ~ticks:3 ();
  say "rx monitor saw %d stack calls"
    (Value.to_int (Invoke.call_exn ctx rx_agent ~iface:"monitor" ~meth:"calls" []));
  say "netmon done"

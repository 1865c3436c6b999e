(* Building an application-specific operating system — the paper's whole
   point: "a highly dynamic kernel, which enables us to build application
   specific operating systems without the loss of generality."

   Three reconfigurations, none of which touch kernel source:

   1. A real-time-ish application replaces the stack's transport layer
      with a zero-checksum variant (it trusts its links and wants the
      cycles back) — dynamic composition surgery.
   2. An untrusted analytics component is admitted into the kernel via
      the sandbox escape; the same component certified by the
      administrator runs check-free. The cycle counters show the price.
   3. A debugging domain is created whose name-space view overrides the
      allocator with an instrumented one; other domains are unaffected.

   Run with: dune exec examples/appos.exe *)

open Paramecium

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* transport layer without payload checksums: cheaper, weaker. It keeps
   the layer contract: encode allocates the frame and copies the
   payload's view in, decode hands the payload on where it lies in the
   frame *)
let fast_transport api (dom : Domain.t) =
  let encode ctx = function
    | [ Value.Int sport; Value.Int dport;
        Value.Pair (Value.Pair (Value.Int poff, Value.Int len), Value.Blob payload) ] ->
      if not (Wire.in_bounds payload ~off:poff ~len) then
        Error (Oerror.Fault "fast-transport: payload outside its buffer")
      else begin
        let b =
          Wire.packet ctx ~headroom:Wire.headroom ~tailroom:Wire.tailroom payload ~off:poff
            ~len
        in
        let off = Wire.headroom - 8 in
        Bytes.set_uint16_be b off sport;
        Bytes.set_uint16_be b (off + 2) dport;
        Bytes.set_uint16_be b (off + 4) len;
        (* checksum field zero: "trust the link" *)
        Bytes.set_uint16_be b (off + 6) 0;
        (* header-only cost besides the payload copy: this is the point
           of the replacement *)
        Call_ctx.access ctx 8;
        Ok (Stack.view b ~off ~len:(8 + len))
      end
    | _ -> Error (Oerror.Type_error "fast-transport: encode")
  in
  let decode ctx = function
    | [ Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob raw) ] ->
      if len < 8 || not (Wire.in_bounds raw ~off ~len) then
        Error (Oerror.Fault "fast-transport: truncated")
      else begin
        Call_ctx.access ctx 8;
        let sport = Bytes.get_uint16_be raw off and dport = Bytes.get_uint16_be raw (off + 2) in
        Ok
          (Value.Pair
             (Value.Pair (Value.Int sport, Value.Int dport), Stack.view raw ~off:(off + 8) ~len:(len - 8)))
      end
    | _ -> Error (Oerror.Type_error "fast-transport: decode")
  in
  let iface =
    Iface.make ~name:"layer"
      [
        Iface.meth ~name:"encode" ~args:[ Vtype.Tint; Vtype.Tint; Stack.view_type ]
          ~ret:Stack.view_type encode;
        Iface.meth ~name:"decode" ~args:[ Stack.view_type ]
          ~ret:(Vtype.Tpair (Vtype.Tpair (Vtype.Tint, Vtype.Tint), Stack.view_type))
          decode;
      ]
  in
  Instance.create api.Api.registry ~class_name:"appos.fast_transport"
    ~domain:dom.Domain.id [ iface ]

(* a counting component used for the sandbox-vs-certified comparison *)
let analytics_construct (api : Api.t) (dom : Domain.t) =
  let iface =
    Iface.make ~name:"analytics"
      [
        Iface.fn1 ~name:"scan" Iface.Blob ~ret:Vtype.Tint (fun ctx b ->
            (* touch every byte: exactly what the sandbox taxes *)
            Call_ctx.access ctx (Bytes.length b);
            let hits = ref 0 in
            Bytes.iter (fun c -> if c = 'x' then incr hits) b;
            Ok (Value.Int !hits));
      ]
  in
  Instance.create api.Api.registry ~class_name:"appos.analytics" ~domain:dom.Domain.id
    [ iface ]

let () =
  let sys = System.create ~seed:11 () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let ctx = Kernel.ctx k kdom in
  let clock = Kernel.clock k in

  (* ---- 1. swap the transport layer at run time ----------------------- *)
  say "== 1. replacing the transport layer of a running stack ==";
  ignore (System.setup_networking sys ~placement:System.Certified ~addr:42 ());
  let comp = Stack.create api kdom ~addr:50 ~driver_path:"/services/netdrv" in
  let stack = Composite.instance comp in
  let send payload =
    snd
      (Clock.measure clock (fun () ->
           ignore
             (Invoke.call_exn ctx stack ~iface:"stack" ~meth:"send"
                [ Value.Int 60; Value.Int 1; Value.Int 2;
                  Stack.view payload ~off:0 ~len:(Bytes.length payload) ])))
  in
  let payload = Bytes.make 1000 'd' in
  let with_checksums = send payload in
  Stack.replace_layer comp "transport" (fast_transport api kdom);
  let without_checksums = send payload in
  say "send 1000B: %d cycles with payload checksums, %d without (saved %.0f%%)"
    with_checksums without_checksums
    ((1. -. (float_of_int without_checksums /. float_of_int with_checksums)) *. 100.);

  (* ---- 2. certified vs sandboxed admission --------------------------- *)
  say "";
  say "== 2. the price of software protection ==";
  let image placement name =
    let img =
      Images.image ~name ~size:4_096 ~author:"kernel-team" analytics_construct
    in
    System.install_exn sys img ~placement ~at:("/services/" ^ name)
  in
  (* author kernel-team: the administrator delegate certifies it *)
  let certified = image System.Certified "analytics-cert" in
  let sandboxed = image System.Sandboxed "analytics-sfi" in
  let blob = Value.Blob (Bytes.make 2000 'x') in
  let scan inst =
    snd
      (Clock.measure clock (fun () ->
           ignore (Invoke.call_exn ctx inst ~iface:"analytics" ~meth:"scan" [ blob ])))
  in
  let c1 = scan certified and c2 = scan sandboxed in
  say "scan 2000B in-kernel: certified %d cycles, sandboxed %d cycles (%.2fx)" c1 c2
    (float_of_int c2 /. float_of_int c1);
  say "sfi checks so far: %d" (Clock.read clock Clock.Sfi_check);

  (* ---- 3. a debugging view through name-space overrides --------------- *)
  say "";
  say "== 3. per-domain reconfiguration with overrides ==";
  let shared_alloc = Allocator.create api kdom ~heap_pages:4 in
  Kernel.register_at k "/services/alloc" shared_alloc;
  let traced = Interpose.wrap api kdom ~target:shared_alloc () in
  let debug_dom =
    Kernel.create_domain k ~name:"debug"
      ~overrides:[ (Path.of_string "/services/alloc", Instance.handle traced) ]
      ()
  in
  let normal_dom = Kernel.create_domain k ~name:"normal" () in
  let use dom =
    let a = Kernel.bind k dom "/services/alloc" in
    let addr =
      Value.to_int
        (Invoke.call_exn (Kernel.ctx k dom) a ~iface:"allocator" ~meth:"alloc"
           [ Value.Int 128 ])
    in
    ignore
      (Invoke.call_exn (Kernel.ctx k dom) a ~iface:"allocator" ~meth:"free"
         [ Value.Int addr ])
  in
  use debug_dom;
  use normal_dom;
  say "debug domain's allocator calls observed: %s; other domains: unobserved"
    (Value.to_string (Invoke.call_exn ctx traced ~iface:"monitor" ~meth:"calls" []));
  say "appos done (total %d cycles)" (Clock.now clock)

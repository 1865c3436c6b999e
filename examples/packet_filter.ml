(* Downloading application code into the shared network device — the
   paper's §1 motivating example, end to end with real code:

   1. An application writes a packet filter in the filter language.
   2. The trusted compiler (Filterc) compiles it to bytecode with
      compiled-in bounds checks, and — acting as a certification
      delegate, the SPIN arrangement from §5 — signs the object code.
   3. The kernel validates the certificate (digest matches the exact
      bytecode) and installs the filter raw into the in-kernel stack.
   4. A rogue filter with no certificate can only run SFI-rewritten; a
      hand-crafted hostile one demonstrates why.

   Run with: dune exec examples/packet_filter.exe *)

open Paramecium

let say fmt = Printf.printf (fmt ^^ "\n%!")

let make_packet ctx ~dport payload =
  let tp = Wire.Transport.build ctx ~sport:9 ~dport (Bytes.of_string payload) in
  let np = Wire.Net.build ctx ~src:13 ~dst:42 ~ttl:8 ~proto:Stack.proto_transport tp in
  Wire.Frame.build ctx ~dst:42 ~src:13 np

let () =
  (* the compiler keeps a build record; its certification policy accepts
     exactly what it compiled *)
  let compiled : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let sys = System.create ~seed:23 () in
  (* enlist the filter compiler as an additional certification delegate *)
  ignore
    (Authority.add_delegate (System.authority sys) (System.rng sys)
       ~name:"filter-compiler"
       ~policy:(Filterc.certifying_policy ~compiled)
       ~latency:Policies.latency_compiler ());
  List.iter
    (Certsvc.add_grant (Kernel.certification (System.kernel sys)))
    (Authority.grants (System.authority sys));
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let ctx = Kernel.ctx k kdom in
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"bind_port"
       [ Value.Int 80 ]);

  (* -- 1+2: write, compile, certify ----------------------------------- *)
  let src = "byte[18] == 0 && byte[19] == 80 && len < 600" in
  let code =
    match Filterc.compile_string src with
    | Ok p ->
      say "compiled %S -> %d instructions" src (Vm.instr_count p);
      Vm.encode p
    | Error e -> failwith e
  in
  Hashtbl.replace compiled "http-filter" ();
  let outcome =
    Authority.certify (System.authority sys)
      (Meta.make ~name:"http-filter" ~size:(String.length code) ())
      ~code ~now:0
  in
  let cert = Option.get outcome.Authority.certificate in
  say "certified by %s" cert.Certificate.signer.Principal.name;

  (* -- 3: kernel-side validation, then install raw --------------------- *)
  (match Certsvc.validate (Kernel.certification k) cert ~code with
  | Validator.Valid _ -> say "kernel validated the filter's object code"
  | Validator.Invalid f -> failwith (Validator.failure_to_string f));
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
       [ Value.Blob (Bytes.of_string code); Value.Bool false ]);

  (* traffic: two to port 80 (one oversized), one to port 23 *)
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dport:80 "GET /"));
  Nic.inject (Kernel.nic k)
    (Bytes.to_string (make_packet ctx ~dport:80 (String.make 800 'x')));
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dport:23 "telnet"));
  Kernel.step k ~ticks:5 ();
  (match Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"stats" [] with
  | Value.List [ Value.Int ok; Value.Int _; Value.Int _; Value.Int filtered ] ->
    say "stack accepted %d packet(s); the filter discarded %d in the driver path" ok
      filtered
  | v -> failwith (Value.to_string v));

  (* -- 4: tampering and hostility ---------------------------------------- *)
  (* flip one byte of the certified object code: validation fails *)
  let tampered = Codegen.tamper code ~at:8 in
  (match Certsvc.validate (Kernel.certification k) cert ~code:tampered with
  | Validator.Invalid Validator.Digest_mismatch ->
    say "tampered object code refused: digest mismatch"
  | _ -> failwith "tampering not caught!");

  (* a hand-written hostile filter: tries to read kernel memory *)
  let evil = [| Vm.Const (2, 8_000_000); Vm.Load8 (3, 2, 0); Vm.Ret 3 |] in
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
       [ Value.Blob (Bytes.of_string (Vm.encode evil)); Value.Bool false ]);
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dport:80 "probe"));
  Kernel.step k ~ticks:3 ();
  say "hostile raw filter: %d wild access(es) detected — the risk certification exists to prevent"
    (Clock.read (Kernel.clock k) Clock.Vm_wild_access);

  (* the same hostile code, SFI-rewritten, is contained *)
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
       [ Value.Blob (Bytes.of_string (Vm.encode evil)); Value.Bool true ]);
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dport:80 "probe2"));
  Kernel.step k ~ticks:3 ();
  say "same code SFI-rewritten: still %d wild access(es) — contained, at a per-access price"
    (Clock.read (Kernel.clock k) Clock.Vm_wild_access);
  say "packet_filter done"

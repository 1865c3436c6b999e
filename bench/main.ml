(* Experiment harness for the Paramecium reproduction.

   The paper (HotOS '95) publishes no tables or figures, so each
   experiment here regenerates a *claim* from the text; DESIGN.md §4 maps
   E1..E8 to the claims. All primary numbers are simulated cycles from the
   machine's cost model — deterministic run to run — followed by an
   optional Bechamel wall-clock suite over the same workloads
   (`--wall`). *)

open Paramecium

let line fmt = Printf.printf (fmt ^^ "\n%!")

let header title claim =
  line "";
  line "==============================================================================";
  line "%s" title;
  line "claim: %s" claim;
  line "=============================================================================="

(* fixed-width table printing *)
let print_table ~columns rows =
  let widths =
    List.mapi
      (fun i (h, _) ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      columns
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let print_row cells =
    line "| %s |" (String.concat " | " (List.map2 pad cells widths))
  in
  print_row (List.map fst columns);
  line "|%s|" (String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

let i = string_of_int
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

let fresh_sys () = System.create ~seed:0xBEEF ()

(* ------------------------------------------------------------------ *)
(* E1: method invocation overhead vs object grain size                 *)
(* ------------------------------------------------------------------ *)

module E1 = struct
  let grains = [ 1; 10; 100; 1_000; 10_000 ]
  let calls = 200

  type fixture = {
    clock : Clock.t;
    ctx : Call_ctx.t;
    plain : Instance.t; (* method on the instance itself *)
    delegating : Instance.t; (* resolves through 3 delegation hops *)
  }

  let make_fixture () =
    let clock = Clock.create () in
    let costs = Cost.default in
    let ctx = Call_ctx.make ~clock ~costs ~caller_domain:0 in
    let registry = Registry.create () in
    let work_iface =
      Iface.make ~name:"work"
        [
          Iface.meth ~name:"run" ~args:[ Vtype.Tint ] ~ret:Vtype.Tunit
            (fun ctx -> function
              | [ Value.Int g ] ->
                Call_ctx.work ctx g;
                Ok Value.Unit
              | _ -> Error (Oerror.Type_error "run(int)"));
        ]
    in
    let plain = Instance.create registry ~class_name:"e1.plain" ~domain:0 [ work_iface ] in
    let hop c = Instance.create registry ~class_name:c ~domain:0 [] in
    let h1 = hop "e1.hop1" and h2 = hop "e1.hop2" and delegating = hop "e1.front" in
    Instance.set_delegate h1 (Some plain);
    Instance.set_delegate h2 (Some h1);
    Instance.set_delegate delegating (Some h2);
    { clock; ctx; plain; delegating }

  (* the baseline: a direct procedure call costs [costs.call] plus the work *)
  let direct_call fx g =
    Clock.advance fx.clock Cost.default.Cost.call;
    Call_ctx.work fx.ctx g

  let cycles_per_call fx body =
    let before = Clock.now fx.clock in
    for _ = 1 to calls do
      body ()
    done;
    float_of_int (Clock.now fx.clock - before) /. float_of_int calls

  let run () =
    header "E1  Method invocation overhead vs grain size"
      "\"overhead [is] relatively low because our objects have a relatively large \
       grain size\" (§2)";
    let fx = make_fixture () in
    let rows =
      List.map
        (fun g ->
          let direct = cycles_per_call fx (fun () -> direct_call fx g) in
          let iface =
            cycles_per_call fx (fun () ->
                ignore
                  (Invoke.call fx.ctx fx.plain ~iface:"work" ~meth:"run"
                     [ Value.Int g ]))
          in
          let deleg =
            cycles_per_call fx (fun () ->
                ignore
                  (Invoke.call fx.ctx fx.delegating ~iface:"work" ~meth:"run"
                     [ Value.Int g ]))
          in
          let overhead = (iface -. direct) /. direct *. 100. in
          let overhead3 = (deleg -. direct) /. direct *. 100. in
          [ i g; f1 direct; f1 iface; f1 deleg; f2 overhead ^ "%"; f2 overhead3 ^ "%" ])
        grains
    in
    print_table
      ~columns:
        [ ("grain(cyc)", ()); ("direct", ()); ("interface", ()); ("deleg x3", ());
          ("iface ovh", ()); ("deleg ovh", ()) ]
      rows
end

(* ------------------------------------------------------------------ *)
(* E2: name-space binding costs                                        *)
(* ------------------------------------------------------------------ *)

module E2 = struct
  let depths = [ 1; 2; 4; 8; 16 ]
  let override_chain = [ 0; 1; 2; 4; 8 ]
  let binds = 100

  (* each depth gets its own subtree so an entry at one depth does not
     collide with a directory at another *)
  let deep_path depth =
    Path.of_string
      ("/"
      ^ String.concat "/"
          (Printf.sprintf "t%d" depth :: List.init (depth - 1) (fun j -> Printf.sprintf "d%d" j)))

  let fixture () =
    let clock = Clock.create () in
    let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
    let ns = Namespace.create () in
    List.iter
      (fun depth ->
        match Namespace.register ns (deep_path depth) depth with
        | Ok () -> ()
        | Error e -> failwith (Namespace.error_to_string e))
      depths;
    (clock, ctx, ns)

  let run () =
    header "E2  Name-space binding"
      "instance naming with per-object overrides and inheritance makes \
       reconfiguration cheap (§2/§3)";
    let clock, ctx, ns = fixture () in
    let root = View.of_namespace ns in
    let cycles body =
      let before = Clock.now clock in
      for _ = 1 to binds do
        body ()
      done;
      float_of_int (Clock.now clock - before) /. float_of_int binds
    in
    line "-- bind cost vs path depth (no overrides) --";
    print_table
      ~columns:[ ("depth", ()); ("cycles/bind", ()) ]
      (List.map
         (fun d ->
           let path = deep_path d in
           [ i d; f1 (cycles (fun () -> ignore (View.bind ctx root path))) ])
         depths);
    line "";
    line "-- bind cost vs override-chain length (depth-4 path, miss in every view) --";
    let path4 = deep_path 4 in
    print_table
      ~columns:[ ("views", ()); ("cycles/bind", ()) ]
      (List.map
         (fun n ->
           let view = ref root in
           for v = 0 to n - 1 do
             view :=
               View.derive
                 ~overrides:[ (Path.of_string (Printf.sprintf "/other%d" v), 1) ]
                 !view
           done;
           [ i n; f1 (cycles (fun () -> ignore (View.bind ctx !view path4))) ])
         override_chain);
    line "";
    line "-- interposition: one namespace replace swaps all future binds --";
    (match Namespace.replace ns (deep_path 4) 999 with
    | Ok old -> line "replace /d0/.../d3: old=%d new=999 (constant-time swap)" old
    | Error e -> line "replace failed: %s" (Namespace.error_to_string e));
    (match View.bind ctx root path4 with
    | Ok h -> line "next bind resolves to %d" h
    | Error _ -> line "bind failed")
end

(* ------------------------------------------------------------------ *)
(* E3: cross-domain invocation via proxies                             *)
(* ------------------------------------------------------------------ *)

module E3 = struct
  let arg_words = [ 0; 1; 4; 16; 64 ]
  let calls = 100

  let echo_iface =
    Iface.make ~name:"echo"
      [
        Iface.meth ~name:"echo" ~args:[ Vtype.Tany ] ~ret:Vtype.Tunit
          (fun _ctx _ -> Ok Value.Unit);
      ]

  let fixture () =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let udom = System.new_domain sys "client" in
    let api = Kernel.api k in
    let target =
      Instance.create api.Api.registry ~class_name:"e3.echo" ~domain:kdom.Domain.id
        [ echo_iface ]
    in
    Kernel.register_at k "/svc/echo" target;
    let local =
      Instance.create api.Api.registry ~class_name:"e3.local" ~domain:udom.Domain.id
        [ echo_iface ]
    in
    let proxy = Kernel.bind k udom "/svc/echo" in
    (k, kdom, udom, target, local, proxy)

  let blob_of_words w = Value.Blob (Bytes.create (max 0 ((w - 1) * 4)))

  let run () =
    header "E3  Cross-domain invocation"
      "proxies fault into a per-page fault handler which maps arguments, switches \
       context, and invokes the method (§3)";
    let k, kdom, udom, target, local, proxy = fixture () in
    let clock = Kernel.clock k in
    let per_call dom obj =
      Mmu.switch_context (Machine.mmu (Kernel.machine k)) dom.Domain.id;
      let ctx = Kernel.ctx k dom in
      fun words ->
        let before = Clock.now clock in
        for _ = 1 to calls do
          ignore (Invoke.call ctx obj ~iface:"echo" ~meth:"echo" [ blob_of_words words ])
        done;
        float_of_int (Clock.now clock - before) /. float_of_int calls
    in
    let rows =
      List.map
        (fun w ->
          let same = (per_call udom local) w in
          let kernel_local = (per_call kdom target) w in
          let cross = (per_call udom proxy) w in
          [ i w; f1 same; f1 kernel_local; f1 cross; f1 (cross /. same) ^ "x" ])
        arg_words
    in
    print_table
      ~columns:
        [ ("arg words", ()); ("same-domain", ()); ("in-kernel", ());
          ("cross-domain", ()); ("factor", ()) ]
      rows
end

(* ------------------------------------------------------------------ *)
(* E4: component placement — the headline comparison                   *)
(* ------------------------------------------------------------------ *)

module E4 = struct
  let payload_sizes = [ 64; 256; 512; 1024; 1400 ]
  let packets = 50

  let make_packet ctx ~dst payload_size =
    let payload = String.make payload_size 'p' in
    Wire.frame ctx ~src:13 ~dst ~ttl:8 ~proto:Stack.proto_transport
      ~sport:9 ~dport:7 (Bytes.of_string payload)

  let cycles_per_packet placement payload_size =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let placement, consume_dom =
      match placement with
      | `Certified -> (System.Certified, kdom)
      | `Sandboxed -> (System.Sandboxed, kdom)
      | `User ->
        let dom = System.new_domain sys "netuser" in
        (System.User dom, dom)
    in
    let net = System.setup_networking sys ~placement ~addr:42 () in
    let ctx = Kernel.ctx k kdom in
    ignore
      (Invoke.call_exn (Kernel.ctx k consume_dom) net.System.stack ~iface:"stack"
         ~meth:"bind_port" [ Value.Int 7 ]);
    let packet = Bytes.to_string (make_packet ctx ~dst:42 payload_size) in
    (* warm up one packet so the lazy binds don't pollute the measurement *)
    Nic.inject (Kernel.nic k) packet;
    Kernel.step k ~ticks:2 ();
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    for _ = 1 to packets do
      Nic.inject (Kernel.nic k) packet;
      Kernel.step k ~ticks:1 ()
    done;
    Kernel.step k ~ticks:4 ();
    let delivered =
      match
        Invoke.call_exn (Kernel.ctx k consume_dom) net.System.stack ~iface:"stack"
          ~meth:"pending" [ Value.Int 7 ]
      with
      | Value.Int n -> n
      | _ -> 0
    in
    assert (delivered >= packets);
    float_of_int (Clock.now clock - before) /. float_of_int packets

  let run () =
    header "E4  Protocol-stack placement: certified vs sandboxed vs user space"
      "\"verifying a certificate at load-time obviates the need for run time fault \
       checks thus allowing components to be more efficient\" (§5)";
    let rows =
      List.map
        (fun size ->
          let cert = cycles_per_packet `Certified size in
          let sand = cycles_per_packet `Sandboxed size in
          let user = cycles_per_packet `User size in
          if not (cert < sand && cert < user) then
            failwith
              (Printf.sprintf "E4: certified (%.1f) is not the cheapest placement at %d B" cert
                 size);
          [ i size; f1 cert; f1 sand; f1 user; f2 (sand /. cert) ^ "x";
            f2 (user /. cert) ^ "x" ])
        payload_sizes
    in
    print_table
      ~columns:
        [ ("payload B", ()); ("certified", ()); ("sandboxed", ()); ("user-space", ());
          ("sand/cert", ()); ("user/cert", ()) ]
      rows;
    line "(cycles per packet, rx path through driver + 3-layer stack)"
end

(* ------------------------------------------------------------------ *)
(* E5: certification cost and amortization                             *)
(* ------------------------------------------------------------------ *)

module E5 = struct
  let sizes = [ 1_024; 4_096; 16_384; 65_536; 262_144 ]

  let null_construct (api : Api.t) (dom : Domain.t) =
    Instance.create api.Api.registry ~class_name:"e5.null" ~domain:dom.Domain.id []

  let load_cycles sys ~name ~size ~at =
    let image = Images.image ~name ~size ~type_safe:true null_construct in
    let clock = Kernel.clock (System.kernel sys) in
    let before = Clock.now clock in
    (match System.install sys image ~placement:System.Certified ~at with
    | Ok _ -> ()
    | Error e -> failwith e);
    Clock.now clock - before

  let validation_cycles size =
    load_cycles (fresh_sys ()) ~name:(Printf.sprintf "c%d" size) ~size ~at:"/svc/c"

  let run () =
    header "E5  Load-time certification cost and break-even"
      "a certifier may take arbitrary off-line time; the kernel only pays digest + \
       signature verification once, at load time (§4)";
    print_table
      ~columns:[ ("code bytes", ()); ("load+validate cycles", ()) ]
      (List.map (fun s -> [ i s; i (validation_cycles s) ]) sizes);
    line "";
    (* two 4 KB loads on one kernel: the first checks the signing
       delegate's grant, the second finds it checked *)
    let sys = fresh_sys () in
    let first = load_cycles sys ~name:"r1" ~size:4_096 ~at:"/svc/r1" in
    let second = load_cycles sys ~name:"r2" ~size:4_096 ~at:"/svc/r2" in
    if first - second <> Cost.default.Cost.sig_verify then
      failwith "E5: a repeat load must skip exactly the grant's signature check";
    line "two 4KB loads on one kernel: %d, then %d cycles (the signing" first second;
    line "delegate's grant is checked once per kernel: one signature fewer)";
    line "";
    (* break-even against the sandbox, using the E4 per-packet numbers *)
    let cert = E4.cycles_per_packet `Certified 256 in
    let sand = E4.cycles_per_packet `Sandboxed 256 in
    let validation = validation_cycles 24_576 (* the stack's image size *) in
    let per_packet_tax = sand -. cert in
    line
      "stack image (24KB): validation = %d cycles; sandbox tax = %.1f cycles/packet"
      validation per_packet_tax;
    line "=> certification amortizes after %.0f packets"
      (float_of_int validation /. per_packet_tax);
    line "";
    (* on-line certification: the whole delegate latency hits the kernel *)
    let online_cost =
      let sys = fresh_sys () in
      let image =
        Images.image ~name:"online" ~size:24_576 ~type_safe:true null_construct
      in
      let clock = Kernel.clock (System.kernel sys) in
      let before = Clock.now clock in
      (match
         System.install sys image ~placement:System.Online_certified ~at:"/svc/o"
       with
      | Ok _ -> ()
      | Error e -> failwith e);
      Clock.now clock - before
    in
    line "on-line certification of the same image: %d cycles (compiler delegate" online_cost;
    line "latency charged to the kernel — why certification is normally off-line)";
    line "";
    line "-- off-line certification latency by delegate (not charged to the kernel) --";
    print_table
      ~columns:[ ("delegate", ()); ("latency (cycles)", ()) ]
      [
        [ "trusted compiler"; i Policies.latency_compiler ];
        [ "prover"; i Policies.latency_prover ];
        [ "test team"; i Policies.latency_test_team ];
        [ "administrator"; i Policies.latency_administrator ];
        [ "graduate student"; i Policies.latency_student ];
      ]
end

(* ------------------------------------------------------------------ *)
(* E6: pop-up threads and the proto-thread fast path                   *)
(* ------------------------------------------------------------------ *)

module E6 = struct
  let events = 100
  let block_probs = [ 0; 25; 50; 75; 100 ]

  type mode = Raw_callback | Popup | Eager_thread

  (* cycles to take one interrupt whose handler may block on a semaphore *)
  let cycles_per_event mode ~block_pct =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let sched = Kernel.sched k in
    let sem = Sync.Semaphore.create 0 in
    let rng = Prng.create ~seed:7 in
    let handled = ref 0 in
    let handler _arg =
      (* handler body: a little protocol work, sometimes a blocking wait *)
      let blocks = Prng.int rng 100 < block_pct in
      if blocks then Sync.Semaphore.acquire sem;
      incr handled
    in
    (match mode with
    | Raw_callback ->
      ignore (Events.register (Kernel.events k) (Events.Irq 7) ~domain:kdom handler)
    | Popup ->
      ignore
        (Events.register_popup (Kernel.events k) (Events.Irq 7) ~domain:kdom ~sched
           handler)
    | Eager_thread ->
      ignore
        (Events.register (Kernel.events k) (Events.Irq 7) ~domain:kdom (fun arg ->
             ignore
               (Scheduler.spawn sched ~name:"eager" ~domain:kdom.Domain.id (fun () ->
                    handler arg)))));
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    for _ = 1 to events do
      Machine.raise_irq (Kernel.machine k) 7;
      (* release any blocked handler and let it finish *)
      while Scheduler.live sched > 0 do
        if Sync.Semaphore.value sem = 0 then Sync.Semaphore.release sem;
        ignore (Scheduler.run sched ())
      done
    done;
    assert (!handled = events);
    float_of_int (Clock.now clock - before) /. float_of_int events

  let run () =
    header "E6  Pop-up threads: proto-thread fast path"
      "\"we delay the actual creation of the pop-up thread by creating a \
       proto-thread ... fast interrupt processing of user code with proper thread \
       semantics\" (§3)";
    line "-- interrupt handling cost by mechanism (non-blocking handlers) --";
    print_table
      ~columns:[ ("mechanism", ()); ("cycles/event", ()) ]
      [
        [ "raw call-back (no thread semantics)"; f1 (cycles_per_event Raw_callback ~block_pct:0) ];
        [ "pop-up (proto-thread fast path)"; f1 (cycles_per_event Popup ~block_pct:0) ];
        [ "eager thread per event"; f1 (cycles_per_event Eager_thread ~block_pct:0) ];
      ];
    line "";
    line "-- pop-up vs eager threads as handlers start blocking --";
    print_table
      ~columns:
        [ ("block %", ()); ("popup", ()); ("eager", ()); ("popup saves", ()) ]
      (List.map
         (fun p ->
           let popup = cycles_per_event Popup ~block_pct:p in
           let eager = cycles_per_event Eager_thread ~block_pct:p in
           [ i p; f1 popup; f1 eager; f2 ((eager -. popup) /. eager *. 100.) ^ "%" ])
         block_probs)
end

(* ------------------------------------------------------------------ *)
(* E7: interposing agents                                              *)
(* ------------------------------------------------------------------ *)

module E7 = struct
  let stack_depths = [ 0; 1; 2; 4; 8 ]
  let sends = 50

  let cycles_per_send depth =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
    let api = Kernel.api k in
    (* stack [depth] monitors in front of the driver *)
    let target = ref net.System.driver in
    for _ = 1 to depth do
      target := Interpose.packet_monitor api kdom ~target:!target
    done;
    let ctx = Kernel.ctx k kdom in
    let frame = Value.Blob (Bytes.create 256) in
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    for _ = 1 to sends do
      ignore (Invoke.call_exn ctx !target ~iface:"netdev" ~meth:"send" [ frame ]);
      Kernel.step k ~ticks:1 ()
    done;
    float_of_int (Clock.now clock - before) /. float_of_int sends

  let run () =
    header "E7  Interposing agents"
      "interposing agents are \"trivial\" to construct and enable \"powerful \
       monitoring tools\" (§2)";
    let base = cycles_per_send 0 in
    print_table
      ~columns:
        [ ("monitors", ()); ("cycles/send", ()); ("added/monitor", ()) ]
      (List.map
         (fun d ->
           let c = cycles_per_send d in
           let per = if d = 0 then 0. else (c -. base) /. float_of_int d in
           [ i d; f1 c; f1 per ])
         stack_depths)
end

(* ------------------------------------------------------------------ *)
(* E8: delegate ordering and the escape hatch                          *)
(* ------------------------------------------------------------------ *)

module E8 = struct
  let components = 200

  (* a random component population: some compiler-safe, some annotated,
     some merely from trusted authors *)
  let random_meta rng idx =
    let type_safe = Prng.int rng 100 < 40 in
    let proof_annotated = (not type_safe) && Prng.int rng 100 < 30 in
    let author = if Prng.int rng 100 < 60 then "kernel-team" else "third-party" in
    Meta.make ~author ~type_safe ~proof_annotated
      ~name:(Printf.sprintf "comp%d" idx)
      ~size:(1024 + Prng.int rng 65536)
      ()

  let chain_fast_first = [ "compiler"; "prover"; "admin" ]
  let chain_slow_first = [ "admin"; "prover"; "compiler" ]

  let delegate_spec ?(flaky_prover = 0.0) rng name =
    match name with
    | "compiler" -> (name, Policies.trusted_compiler, Policies.latency_compiler)
    | "prover" ->
      ( name,
        Policies.flaky rng ~fail_probability:flaky_prover Policies.prover,
        Policies.latency_prover )
    | "admin" ->
      ( name,
        Policies.administrator ~trusted_authors:[ "kernel-team" ],
        Policies.latency_administrator )
    | _ -> invalid_arg "delegate_spec"

  let simulate ?(flaky_prover = 0.0) chain =
    let rng = Prng.create ~seed:0x5EED in
    let auth_rng = Prng.create ~seed:0xCA in
    let auth = Authority.create auth_rng ~name:"ca" ~key_bits:384 in
    List.iter
      (fun name ->
        let name, policy, latency = delegate_spec ~flaky_prover rng name in
        ignore (Authority.add_delegate auth auth_rng ~name ~policy ~latency ()))
      chain;
    let pop_rng = Prng.create ~seed:0x90 in
    let certified = ref 0 and total_latency = ref 0.0 in
    for idx = 1 to components do
      let m = random_meta pop_rng idx in
      let outcome = Authority.certify auth m ~code:"code" ~now:0 in
      if outcome.Authority.certificate <> None then incr certified;
      total_latency := !total_latency +. float_of_int outcome.Authority.elapsed
    done;
    (!certified, !total_latency /. float_of_int components)

  let run () =
    header "E8  Delegate ordering and the escape hatch"
      "subordinates \"may be ordered in preference and provide an escape hatch if \
       one of the subordinates fails to certify\" (§4)";
    line "population: %d components (40%% type-safe, 30%% of the rest annotated, 60%% kernel-team)"
      components;
    line "";
    let c1, l1 = simulate chain_fast_first in
    let c2, l2 = simulate chain_slow_first in
    print_table
      ~columns:
        [ ("delegate order", ()); ("certified", ()); ("mean latency (cycles)", ()) ]
      [
        [ "compiler -> prover -> admin"; i c1; f1 l1 ];
        [ "admin -> prover -> compiler"; i c2; f1 l2 ];
      ];
    line "(same components certified either way; ordering changes only the cost)";
    line "";
    line "-- escape hatch under an unreliable prover (compiler->prover->admin) --";
    print_table
      ~columns:
        [ ("prover failure", ()); ("certified", ()); ("mean latency", ()) ]
      (List.map
         (fun pct ->
           let c, l = simulate ~flaky_prover:(float_of_int pct /. 100.) chain_fast_first in
           [ i pct ^ "%"; i c; f1 l ])
         [ 0; 25; 50; 75; 100 ])
end


(* ------------------------------------------------------------------ *)
(* E9: run-time inlining (the paper's proposed future work)            *)
(* ------------------------------------------------------------------ *)

module E9 = struct
  let grains = [ 1; 10; 100; 1_000 ]

  let run () =
    header "E9  Run-time inlining"
      "\"We are, however, contemplating run time inline techniques in case this \
       might turn out to be a bottleneck\" (§2) — implemented as binding-time \
       specialization";
    let fx = E1.make_fixture () in
    let inlined =
      Inline.specialize_exn fx.E1.ctx fx.E1.plain ~iface:"work" ~meth:"run"
    in
    let rows =
      List.map
        (fun g ->
          let direct = E1.cycles_per_call fx (fun () -> E1.direct_call fx g) in
          let iface =
            E1.cycles_per_call fx (fun () ->
                ignore
                  (Invoke.call fx.E1.ctx fx.E1.plain ~iface:"work" ~meth:"run"
                     [ Value.Int g ]))
          in
          let inl = E1.cycles_per_call fx (fun () -> ignore (inlined [ Value.Int g ])) in
          [ i g; f1 iface; f1 inl; f1 direct;
            f2 ((inl -. direct) /. direct *. 100.) ^ "%" ])
        grains
    in
    print_table
      ~columns:
        [ ("grain(cyc)", ()); ("interface", ()); ("inlined", ()); ("direct", ());
          ("inline ovh", ()) ]
      rows;
    line "(inlining pays one dispatch at specialization time; revocation is still";
    line " checked per call, so the floor is direct + 1 guard cycle)"
end

(* ------------------------------------------------------------------ *)
(* E10: demand paging on the fault-callback mechanism                  *)
(* ------------------------------------------------------------------ *)

module E10 = struct
  let budget = 32
  let working_sets = [ 8; 16; 32; 48; 64 ]
  let accesses = 2_000

  (* sequential-with-reuse sweep over [ws] pages *)
  let measure ws =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let m = Kernel.machine k in
    let ps = Machine.page_size m in
    let pager =
      Pager.create (Kernel.api k) kdom ~disk:(Kernel.disk k) ~resident_budget:budget
        ~backing_pages:64 ~first_block:0
    in
    let base = Pager.base pager in
    (* warm up: touch the working set once *)
    for p = 0 to ws - 1 do
      Machine.write32 m kdom.Domain.id (base + (p * ps)) p
    done;
    let clock = Kernel.clock k in
    let faults0 = Pager.faults pager in
    let before = Clock.now clock in
    for a = 0 to accesses - 1 do
      let p = a mod ws in
      ignore (Machine.read32 m kdom.Domain.id (base + (p * ps)))
    done;
    let cycles = float_of_int (Clock.now clock - before) /. float_of_int accesses in
    let faults =
      float_of_int (Pager.faults pager - faults0) /. float_of_int accesses *. 1000.
    in
    (faults, cycles)

  let run () =
    header "E10  Demand paging outside the nucleus"
      "virtual memory implementations live outside the nucleus, built on per-page \
       fault call-backs (§3)";
    line "resident budget: %d frames; CLOCK replacement; 4KB pages; %d accesses" budget
      accesses;
    print_table
      ~columns:
        [ ("working set", ()); ("faults/1000 accesses", ()); ("cycles/access", ()) ]
      (List.map
         (fun ws ->
           let faults, cycles = measure ws in
           [ i ws; f1 faults; f1 cycles ])
         working_sets)
end


(* ------------------------------------------------------------------ *)
(* E11: cost-model sensitivity ablation                                 *)
(* ------------------------------------------------------------------ *)

module E11 = struct
  let sfi_costs = [ 1; 2; 4; 8; 16 ]
  let payload = 256
  let packets = 30

  (* the E4 measurement, but parameterized on the cost table *)
  let per_packet costs placement =
    let sys = System.create ~seed:0xBEEF ~costs () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let placement, consume_dom =
      match placement with
      | `Certified -> (System.Certified, kdom)
      | `Sandboxed -> (System.Sandboxed, kdom)
      | `User ->
        let dom = System.new_domain sys "netuser" in
        (System.User dom, dom)
    in
    let net = System.setup_networking sys ~placement ~addr:42 () in
    let ctx = Kernel.ctx k kdom in
    ignore
      (Invoke.call_exn (Kernel.ctx k consume_dom) net.System.stack ~iface:"stack"
         ~meth:"bind_port" [ Value.Int 7 ]);
    let packet = Bytes.to_string (E4.make_packet ctx ~dst:42 payload) in
    Nic.inject (Kernel.nic k) packet;
    Kernel.step k ~ticks:2 ();
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    for _ = 1 to packets do
      Nic.inject (Kernel.nic k) packet;
      Kernel.step k ~ticks:1 ()
    done;
    Kernel.step k ~ticks:4 ();
    float_of_int (Clock.now clock - before) /. float_of_int packets

  let run () =
    header "E11  Cost-model sensitivity"
      "ablation: the E4 conclusion should not hinge on the exact price of one SFI \
       address check (default 4 cycles)";
    print_table
      ~columns:
        [ ("sfi_check", ()); ("certified", ()); ("sandboxed", ()); ("user-space", ());
          ("sand/cert", ()); ("sand vs user", ()) ]
      (List.map
         (fun c ->
           let costs = { Cost.default with Cost.sfi_check = c } in
           let cert = per_packet costs `Certified in
           let sand = per_packet costs `Sandboxed in
           let user = per_packet costs `User in
           if not (cert < sand && cert < user) then
             failwith
               (Printf.sprintf
                  "E11: certified (%.1f) is not the cheapest placement at sfi_check %d" cert c);
           [ i c; f1 cert; f1 sand; f1 user; f2 (sand /. cert) ^ "x";
             (if sand < user then "sandbox wins" else "user wins") ])
         sfi_costs);
    line "(256B payloads; certified placement wins at every plausible check cost,";
    line " only the sandbox-vs-user ordering is sensitive)"
end


(* ------------------------------------------------------------------ *)
(* E12: downloaded packet filters — real code, real checks             *)
(* ------------------------------------------------------------------ *)

module E12 = struct
  (* Elsewhere the SFI tax is a cost-model constant; here the downloaded
     code is real bytecode, the sandbox is real instruction rewriting
     (Sfi_rewrite), and the trusted compiler is a real compiler
     (Filterc), so the comparison is measured execution. *)

  let packets = 40
  let filter_src = "byte[19] == 7 && byte[18] == 0"

  let make_packet ctx ~dport =
    Wire.frame ctx ~src:13 ~dst:42 ~ttl:8 ~proto:Stack.proto_transport
      ~sport:9 ~dport (Bytes.make 200 'p')

  let setup () =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
    let ctx = Kernel.ctx k kdom in
    ignore
      (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"bind_port"
         [ Value.Int 7 ]);
    (sys, k, kdom, net, ctx)

  let code () =
    match Filterc.compile_string filter_src with
    | Ok p -> Vm.encode p
    | Error e -> failwith e

  let drive k ctx =
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    for idx = 1 to packets do
      let dport = if idx mod 2 = 0 then 7 else 9 in
      Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dport));
      Kernel.step k ~ticks:1 ()
    done;
    Kernel.step k ~ticks:4 ();
    float_of_int (Clock.now clock - before) /. float_of_int packets

  let in_stack ~sandboxed () =
    let _sys, k, _, net, ctx = setup () in
    ignore
      (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
         [ Value.Blob (Bytes.of_string (code ())); Value.Bool sandboxed ]);
    drive k ctx

  (* baseline: the filter lives in a user-domain object; an interposer on
     the stack sends every received frame through it (one cross-domain
     call per packet) before the kernel stack sees it *)
  let in_user_domain () =
    let sys, k, kdom, net, ctx = setup () in
    let udom = System.new_domain sys "filterd" in
    let api = Kernel.api k in
    let program =
      match Vm.decode (code ()) with Ok p -> p | Error e -> failwith e
    in
    let filter_obj =
      Instance.create api.Api.registry ~class_name:"user.filter"
        ~domain:udom.Domain.id
        [
          Iface.make ~name:"filter"
            [
              Iface.meth ~name:"check" ~args:[ Vtype.Tblob ] ~ret:Vtype.Tint
                (fun fctx -> function
                  | [ Value.Blob raw ] ->
                    (match Vm.run fctx ~mem:(Vm.mem_of_bytes raw) program with
                    | Vm.Returned v -> Ok (Value.Int v)
                    | _ -> Ok (Value.Int 0))
                  | _ -> Error (Oerror.Type_error "check(blob)"));
            ];
        ]
    in
    Kernel.register_at k "/services/filterd" filter_obj;
    let filter_proxy = Kernel.bind k kdom "/services/filterd" in
    let rx_override ictx = function
      | [ (Value.Blob _ as frame) ] as args ->
        (match
           Invoke.call ictx filter_proxy ~iface:"filter" ~meth:"check" [ frame ]
         with
        | Ok (Value.Int 0) -> Ok Value.Unit (* dropped in user space *)
        | _ -> Invoke.call ictx net.System.stack ~iface:"stack" ~meth:"rx" args)
      | _ -> Error (Oerror.Type_error "rx(blob)")
    in
    let agent =
      Interpose.wrap api kdom ~target:net.System.stack
        ~overrides:[ ("stack", "rx", rx_override) ]
        ()
    in
    (match Interpose.attach api ~path:"/services/stack" ~agent with
    | Ok _ -> ()
    | Error e -> failwith e);
    (* make the driver deliver through the agent *)
    ignore
      (Invoke.call_exn ctx net.System.driver ~iface:"netdev" ~meth:"attach"
         [ Value.Str "/services/stack" ]);
    drive k ctx

  let run () =
    header "E12  Downloaded packet filters (real bytecode, real checks)"
      "\"inserting application components for fast protocol processing into a \
       shared network device\" (§1): certified filters run raw; uncertified code \
       needs SFI rewriting or a protection-domain boundary";
    let raw = in_stack ~sandboxed:false () in
    let sfi = in_stack ~sandboxed:true () in
    let user = in_user_domain () in
    let program =
      match Filterc.compile_string filter_src with Ok p -> p | Error e -> failwith e
    in
    let rewritten =
      match
        Sfi_rewrite.rewrite program
          ~window_size:(Sfi_rewrite.padded_size Pm_machine.Nic.mtu)
      with
      | Ok p -> p
      | Error e -> failwith e
    in
    line "filter: %s" filter_src;
    line "object code: %d instructions raw, %d after SFI rewriting"
      (Vm.instr_count program) (Vm.instr_count rewritten);
    print_table
      ~columns:[ ("filter placement", ()); ("cycles/packet", ()); ("vs certified", ()) ]
      [
        [ "certified, in-kernel, raw"; f1 raw; "1.00x" ];
        [ "uncertified, in-kernel, SFI-rewritten"; f1 sfi; f2 (sfi /. raw) ^ "x" ];
        [ "uncertified, user-space object"; f1 user; f2 (user /. raw) ^ "x" ];
      ];
    line "(mixed accept/drop traffic, 200B payloads; the E4 comparison re-run with";
    line " measured execution instead of cost-model constants)";
    line "";
    line "-- filter execution alone (stack processing excluded) --";
    let clock = Clock.create () in
    let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
    let pkt = Bytes.make 2048 'p' in
    Bytes.set pkt 18 '\000';
    Bytes.set pkt 19 '\007';
    let cost_of prog =
      let before = Clock.now clock in
      for _ = 1 to 100 do
        ignore (Vm.run ctx ~mem:(Vm.mem_of_bytes pkt) prog)
      done;
      float_of_int (Clock.now clock - before) /. 100.
    in
    let raw_only = cost_of program in
    let sfi_only = cost_of rewritten in
    line "raw: %.1f cycles/run; SFI-rewritten: %.1f cycles/run (+%.0f%%)" raw_only
      sfi_only
      ((sfi_only -. raw_only) /. raw_only *. 100.);
    line "=> the per-check tax is real but drowns in stack processing for tiny";
    line "   filters; it is whole components (E4's stack) where it dominates"
end

(* ------------------------------------------------------------------ *)
(* E13: batched RPC over shared-memory channels                        *)
(* ------------------------------------------------------------------ *)

module E13 = struct
  let batch_sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
  let rounds = 8

  let echo_iface =
    Iface.make ~name:"echo"
      [
        Iface.meth ~name:"echo" ~args:[ Vtype.Tany ] ~ret:Vtype.Tunit
          (fun _ctx _ -> Ok Value.Unit);
      ]

  let fixture () =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let udom = System.new_domain sys "rpc-client" in
    let api = Kernel.api k in
    (* the E3 baseline: one proxy crossing per call *)
    let target =
      Instance.create api.Api.registry ~class_name:"e13.echo" ~domain:kdom.Domain.id
        [ echo_iface ]
    in
    Kernel.register_at k "/svc/echo13" target;
    let proxy = Kernel.bind k udom "/svc/echo13" in
    (* the channel transport: one crossing per batch *)
    let conn = Rpc_chan.connect api ~client:udom ~server:kdom () in
    Rpc_chan.serve api conn ~procedures:[ ("e", fun _ctx _args -> Ok Bytes.empty) ] ();
    let client = Rpc_chan.client api conn () in
    (k, udom, proxy, client)

  let run () =
    header "E13  Batched calls over shared-memory channels"
      "shared pages + doorbells amortise the cross-domain crossing over a batch; \
       the per-call proxy fault becomes a per-batch trap";
    let k, udom, proxy, client = fixture () in
    let clock = Kernel.clock k in
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
    let ctx = Kernel.ctx k udom in
    (* proxy baseline, E3's 0-arg point *)
    let proxy_per_call =
      let warm () =
        ignore
          (Invoke.call_exn ctx proxy ~iface:"echo" ~meth:"echo"
             [ Value.Blob Bytes.empty ])
      in
      warm ();
      let before = Clock.now clock in
      for _ = 1 to 50 do
        warm ()
      done;
      float_of_int (Clock.now clock - before) /. 50.
    in
    let chan_per_call b =
      let batch =
        Value.List
          (List.init b (fun _ -> Value.Pair (Value.Str "e", Value.Blob Bytes.empty)))
      in
      let once () =
        ignore
          (Invoke.call_exn ctx client ~iface:"rpc.batch" ~meth:"call_many" [ batch ])
      in
      once ();
      (* warm-up round *)
      let before = Clock.now clock in
      for _ = 1 to rounds do
        once ()
      done;
      float_of_int (Clock.now clock - before) /. float_of_int (rounds * b)
    in
    let measured = List.map (fun b -> (b, chan_per_call b)) batch_sizes in
    let rows =
      List.map
        (fun (b, per_call) ->
          [ i b; f1 proxy_per_call; f1 per_call; f2 (proxy_per_call /. per_call) ^ "x" ])
        measured
    in
    print_table
      ~columns:
        [ ("batch", ()); ("proxy cyc/call", ()); ("channel cyc/call", ());
          ("speedup", ()) ]
      rows;
    (match List.find_opt (fun (_, c) -> c < proxy_per_call) measured with
    | Some (b, _) ->
      line "=> crossover at batch %d: the channel beats the per-call proxy from" b;
      line "   there on; the fixed doorbell crossing (%d cycles with default costs)"
        (Cost.doorbell_crossing Cost.default);
      line "   is amortised while marshalling stays linear in calls"
    | None -> line "=> no crossover measured (proxy faster at every batch size)");
    (* the same trade on the E4 receive path: per-frame proxy hop vs a
       channel bridge draining bursts into one rx_batch invocation *)
    let rx_cycles ~channel payload_size =
      let sys = fresh_sys () in
      let k = System.kernel sys in
      let kdom = Kernel.kernel_domain k in
      let dom = System.new_domain sys "netuser" in
      let net = System.setup_networking sys ~placement:(System.User dom) ~addr:42 () in
      if channel then ignore (System.channel_rx sys net ());
      let ctx = Kernel.ctx k kdom in
      ignore
        (Invoke.call_exn (Kernel.ctx k dom) net.System.stack ~iface:"stack"
           ~meth:"bind_port" [ Value.Int 7 ]);
      let packet = Bytes.to_string (E4.make_packet ctx ~dst:42 payload_size) in
      Nic.inject (Kernel.nic k) packet;
      Kernel.step k ~ticks:2 ();
      let clock = Kernel.clock k in
      let before = Clock.now clock in
      for _ = 1 to E4.packets do
        Nic.inject (Kernel.nic k) packet;
        Kernel.step k ~ticks:1 ()
      done;
      Kernel.step k ~ticks:4 ();
      let delivered =
        match
          Invoke.call_exn (Kernel.ctx k dom) net.System.stack ~iface:"stack"
            ~meth:"pending" [ Value.Int 7 ]
        with
        | Value.Int n -> n
        | _ -> 0
      in
      assert (delivered >= E4.packets);
      float_of_int (Clock.now clock - before) /. float_of_int E4.packets
    in
    let rx_rows =
      List.map
        (fun size ->
          let p = rx_cycles ~channel:false size in
          let c = rx_cycles ~channel:true size in
          [ i size; f1 p; f1 c; f2 (p /. c) ^ "x" ])
        [ 64; 256; 1024 ]
    in
    line "";
    line "-- E4 user-space stack, rx path: per-frame proxy vs channel bridge --";
    print_table
      ~columns:
        [ ("payload B", ()); ("proxy rx", ()); ("channel rx", ()); ("speedup", ()) ]
      rx_rows;
    line "(cycles per packet; the bridge replaces the driver->stack proxy hop with";
    line " a ring enqueue and one doorbell-driven rx_batch per burst)"
end


(* ------------------------------------------------------------------ *)
(* E14: the adaptive placement agent converging on static-best          *)
(* ------------------------------------------------------------------ *)

module E14 = struct
  (* Margin the converged adaptive configuration must reach, relative to
     the static-best one from E4/E13. *)
  let margin = 0.10

  let epochs = 12
  let per_epoch = 30
  let tail = 3

  let mean = function
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

  (* mean of the last [tail] epochs: the converged steady state, with the
     migration epoch (if any) excluded *)
  let converged epoch_costs =
    (* epoch_costs is accumulated newest-first *)
    let t = tail in
    mean (List.filteri (fun i _ -> i < t) epoch_costs)

  let action_to_string = function
    | Placer.Hold -> ""
    | Placer.Migrated p -> "-> " ^ Placer.placement_to_string p
    | Placer.Flipped Chan.Doorbell -> "-> doorbell"
    | Placer.Flipped Chan.Poll -> "-> poll"
    | Placer.Repinned c -> Printf.sprintf "-> cpu%d" c

  let verdict label adaptive best =
    let m = (adaptive -. best) /. best in
    line "%s: adaptive %.1f vs static-best %.1f cyc => margin %+.1f%% (limit %.0f%%)"
      label adaptive best (m *. 100.) (margin *. 100.);
    assert (m <= margin)

  (* -- the E4 rx workload under the placer ----------------------------- *)

  (* [grain] adds compute cycles per packet outside the stack, turning the
     crossing-dominated rx path into a compute-dominated one. [adaptive]
     runs the placer; otherwise the placement stays fixed. *)
  let rx_run ~start ~grain ~adaptive =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let udom = System.new_domain sys "netuser" in
    let placement =
      match start with `User -> System.User udom | `Certified -> System.Certified
    in
    let net = System.setup_networking sys ~placement ~addr:42 () in
    let stack = ref net.System.stack in
    let consume = ref net.System.stack_domain in
    let bind_port () =
      ignore
        (Invoke.call_exn (Kernel.ctx k !consume) !stack ~iface:"stack"
           ~meth:"bind_port" [ Value.Int 7 ])
    in
    bind_port ();
    let clock = Kernel.clock k in
    (* the placer consumes per-domain accounting, so tracing is on *)
    Obs.enable (Clock.obs clock);
    let migration_cost = ref 0 in
    (* the migration path is the ordinary unload + loader/certsvc reload,
       followed by re-attaching the driver's rx sink to the new instance *)
    let migrate (p : Placer.placement) =
      let before = Clock.now clock in
      match Loader.unload (Kernel.loader k) (Path.of_string "/services/stack") with
      | Error _ -> false
      | Ok () ->
        let image =
          Images.image ~name:"protostack" ~size:24_576 ~author:"kernel-team"
            ~type_safe:true
            (Images.stack_construct ~addr:42 ~driver_path:"/services/netdrv")
        in
        let placement, dom =
          match p with
          | Placer.Certified -> (System.Certified, kdom)
          (* E14 manages without [verified_ok], so this arm never fires *)
          | Placer.Verified -> (System.Certified, kdom)
          | Placer.User -> (System.User udom, udom)
        in
        (match System.install sys image ~placement ~at:"/services/stack" with
        | Error _ -> false
        | Ok inst ->
          stack := inst;
          consume := dom;
          ignore
            (Invoke.call_exn (Kernel.ctx k kdom) net.System.driver ~iface:"netdev"
               ~meth:"attach" [ Value.Str "/services/stack" ]);
          bind_port ();
          migration_cost := !migration_cost + (Clock.now clock - before);
          true)
    in
    let placer =
      Placer.create ~clock ~costs:Cost.default ~confirm:2 ~cooldown:1 ()
    in
    if adaptive then
      Placer.manage placer ~watch:[ kdom.Domain.id ]
        ~placement:(match start with `User -> Placer.User | `Certified -> Placer.Certified)
        ~migrate ();
    let ctx = Kernel.ctx k kdom in
    let packet = Bytes.to_string (E4.make_packet ctx ~dst:42 64) in
    (* warm up so the lazy binds don't pollute epoch 1 *)
    Nic.inject (Kernel.nic k) packet;
    Kernel.step k ~ticks:2 ();
    ignore (Placer.epoch placer);
    let rows = ref [] and costs = ref [] in
    for e = 1 to epochs do
      let before = Clock.now clock in
      for _ = 1 to per_epoch do
        Nic.inject (Kernel.nic k) packet;
        Kernel.step k ~ticks:1 ();
        if grain > 0 then Call_ctx.work ctx grain
      done;
      Kernel.step k ~ticks:2 ();
      let cyc =
        float_of_int (Clock.now clock - before) /. float_of_int per_epoch
      in
      costs := cyc :: !costs;
      let actions = if adaptive then Placer.epoch placer else [ Placer.Hold ] in
      rows :=
        [ i e;
          (match Placer.placement placer with
          | Some p -> Placer.placement_to_string p
          | None -> Placer.placement_to_string (match start with `User -> Placer.User | `Certified -> Placer.Certified));
          Printf.sprintf "%.3f" (Placer.crossing_share placer);
          f1 cyc;
          String.concat " " (List.map action_to_string actions) ]
        :: !rows
    done;
    let delivered =
      match
        Invoke.call_exn (Kernel.ctx k !consume) !stack ~iface:"stack" ~meth:"pending"
          [ Value.Int 7 ]
      with
      | Value.Int n -> n
      | _ -> 0
    in
    assert (delivered >= per_epoch);
    (List.rev !rows, converged !costs, placer, !migration_cost)

  let rx_workload label ~grain =
    line "";
    line "-- %s workload (64B packets%s) --" label
      (if grain > 0 then Printf.sprintf " + %d compute cyc/packet" grain else "");
    let rows, adaptive, placer, migration = rx_run ~start:`User ~grain ~adaptive:true in
    print_table
      ~columns:
        [ ("epoch", ()); ("placement", ()); ("cross share", ()); ("cyc/pkt", ());
          ("action", ()) ]
      rows;
    let _, static_user, _, _ = rx_run ~start:`User ~grain ~adaptive:false in
    let _, static_cert, _, _ = rx_run ~start:`Certified ~grain ~adaptive:false in
    line "static: user %.1f, certified %.1f cyc/pkt; placer made %d move(s)%s"
      static_user static_cert (Placer.moves placer)
      (if migration > 0 then
         Printf.sprintf " (migration cost %d cyc, amortized across epochs)" migration
       else "");
    verdict label adaptive (Float.min static_user static_cert)

  (* -- the E13 doorbell/poll trade under the placer -------------------- *)

  let chan_run ~start ~adaptive =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let udom = System.new_domain sys "chan-consumer" in
    let chan =
      Chan.create (Kernel.machine k) (Kernel.vmem k) ~slots:64 ~slot_size:64
        ~mode:start ~producer:kdom ()
    in
    ignore (Chan.accept chan ~into:udom);
    ignore
      (Chan.on_doorbell chan ~events:(Kernel.events k) ~sched:(Kernel.sched k)
         (fun () -> ignore (Chan.recv_batch chan ())));
    let clock = Kernel.clock k in
    Obs.enable (Clock.obs clock);
    let placer =
      Placer.create ~clock ~costs:Cost.default ~confirm:2 ~cooldown:1 ()
    in
    if adaptive then Placer.manage_channel placer chan;
    let msg = Bytes.make 32 'm' in
    let msgs = 4 * per_epoch in
    let rows = ref [] and costs = ref [] in
    for e = 1 to epochs do
      let before = Clock.now clock in
      for _ = 1 to msgs do
        (* one message per burst: the doorbell-dominated shape *)
        Chan.send chan msg;
        if Chan.mode chan = Chan.Poll then ignore (Chan.recv_batch chan ())
      done;
      let cyc = float_of_int (Clock.now clock - before) /. float_of_int msgs in
      costs := cyc :: !costs;
      let actions = if adaptive then Placer.epoch placer else [ Placer.Hold ] in
      (* the share counts each ring's crossing as it was paid, so it is
         part of the epoch's cycles *)
      assert (Placer.doorbell_share placer <= 1.);
      rows :=
        [ i e;
          (match Chan.mode chan with Chan.Doorbell -> "doorbell" | Chan.Poll -> "poll");
          Printf.sprintf "%.3f" (Placer.doorbell_share placer);
          f1 cyc;
          String.concat " " (List.map action_to_string actions) ]
        :: !rows
    done;
    assert (Chan.pending chan = 0);
    (List.rev !rows, converged !costs, placer)

  let chan_workload () =
    line "";
    line "-- doorbell-dominated channel (1 msg/burst, 32B) --";
    let rows, adaptive, placer = chan_run ~start:Chan.Doorbell ~adaptive:true in
    print_table
      ~columns:
        [ ("epoch", ()); ("mode", ()); ("bell share", ()); ("cyc/msg", ());
          ("action", ()) ]
      rows;
    let _, static_bell, _ = chan_run ~start:Chan.Doorbell ~adaptive:false in
    let _, static_poll, _ = chan_run ~start:Chan.Poll ~adaptive:false in
    line "static: doorbell %.1f, poll %.1f cyc/msg; placer made %d flip(s)"
      static_bell static_poll (Placer.flips placer);
    verdict "channel" adaptive (Float.min static_bell static_poll)

  let run () =
    header "E14  Adaptive placement driven by per-domain accounting"
      "close the observability loop: an agent watching crossing-cost share and \
       doorbell cost migrates components between User and Certified placement and \
       flips channels between Doorbell and Poll, converging on static-best";
    rx_workload "crossing-dominated" ~grain:0;
    rx_workload "compute-dominated" ~grain:30_000;
    chan_workload ()
end

(* ------------------------------------------------------------------ *)
(* E15: load-time verification vs SFI vs certification                 *)
(* ------------------------------------------------------------------ *)

module E15 = struct
  (* The third trust mechanism measured against the other two: a
     bytecode-verified component runs exactly the raw program (zero
     per-access overhead, like a certified one) for a one-off abstract
     interpretation charged per instruction — no signer anywhere on the
     trust path. *)

  let filter_src = "byte[19] == 7 && byte[18] == 0"

  let program () =
    match Filterc.compile_string filter_src with
    | Ok p -> p
    | Error e -> failwith e

  let run () =
    header "E15  Bytecode verification: the third trust mechanism"
      "a static proof admits downloaded code into the kernel with zero \
       per-access overhead like certification, but without a signer; the \
       one-off analysis cost amortizes against SFI's per-run tax";
    let program = program () in
    let code = Vm.encode program in
    let rewritten =
      match
        Sfi_rewrite.rewrite program
          ~window_size:(Sfi_rewrite.padded_size Pm_machine.Nic.mtu)
      with
      | Ok p -> p
      | Error e -> failwith e
    in
    (* per-run execution, measured on the standalone VM *)
    let clock = Clock.create () in
    let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
    let pkt = Bytes.make 2048 'p' in
    Bytes.set pkt 18 '\000';
    Bytes.set pkt 19 '\007';
    let cost_of prog =
      let before = Clock.now clock in
      for _ = 1 to 100 do
        ignore (Vm.run ctx ~mem:(Vm.mem_of_bytes pkt) prog)
      done;
      float_of_int (Clock.now clock - before) /. 100.
    in
    let raw_run = cost_of program in
    let sfi_run = cost_of rewritten in
    let verified_run = cost_of program in
    (* acceptance: verified execution IS raw execution *)
    assert (verified_run = raw_run);
    (* one-off admission costs, measured through the certification service *)
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let certsvc = Kernel.certification k in
    let kclock = Kernel.clock k in
    let before = Clock.now kclock in
    (match Certsvc.verify certsvc ~code with
    | Ok _ -> ()
    | Error e -> failwith ("E15: verifier rejected the filter: " ^ e));
    let verify_cost = Clock.now kclock - before in
    let cert_cost =
      let image =
        Images.image ~name:"e15-filter" ~size:(String.length code)
          ~author:"kernel-team" ~type_safe:true (fun _ _ ->
            failwith "never constructed")
      in
      let image, _trail =
        Images.certify (System.authority sys) ~now:(Clock.now kclock) image
      in
      match image.Loader.cert with
      | None -> failwith "E15: no delegate certified the filter image"
      | Some cert ->
        let before = Clock.now kclock in
        (match Certsvc.validate certsvc cert ~code:image.Loader.code with
        | Validator.Valid _ -> ()
        | Validator.Invalid _ -> failwith "E15: certificate did not validate");
        Clock.now kclock - before
    in
    (* end-to-end: a Verified placement admits unsigned real bytecode *)
    let vimage =
      let base =
        Images.image ~name:"vfilter" ~size:(String.length code)
          ~author:"anyone" ~type_safe:false (fun api dom ->
            Instance.create api.Api.registry ~class_name:"verified.filter"
              ~domain:dom.Domain.id [])
      in
      { base with Loader.code }
    in
    (match
       System.install sys vimage ~placement:System.Verified
         ~at:"/services/vfilter"
     with
    | Ok _ -> ()
    | Error e -> failwith ("E15: Verified install failed: " ^ e));
    assert (Certsvc.verifications certsvc = 2);
    let overhead = sfi_run -. raw_run in
    print_table
      ~columns:
        [ ("admission", ()); ("one-off cycles", ()); ("cycles/run", ());
          ("per-run overhead", ()) ]
      [
        [ "certified (signature)"; i cert_cost; f1 raw_run; "0.0" ];
        [ "verified (static proof)"; i verify_cost; f1 verified_run; "0.0" ];
        [ "SFI-rewritten"; "0"; f1 sfi_run; f1 overhead ];
      ];
    line "filter: %s (%d instructions; verify = %d cyc/instr)" filter_src
      (Vm.instr_count program) Cost.default.Cost.verify_instr;
    line "crossover vs SFI: verification pays for itself after %.0f runs,"
      (Float.of_int verify_cost /. overhead |> Float.ceil);
    line "certification after %.0f runs — and needs a signer on the trust path"
      (Float.of_int cert_cost /. overhead |> Float.ceil);
    line "=> verified placement executed identically to raw (%.1f = %.1f cyc/run)"
      verified_run raw_run
end

(* ------------------------------------------------------------------ *)
(* E16: the channel-backed network data path (Pm_net)                  *)
(* ------------------------------------------------------------------ *)

module E16 = struct
  let batch_sizes = [ 1; 4; 16; 64 ]
  let producer_counts = [ 1; 2; 3; 4 ]
  let payload = String.make 64 'x'
  let rounds = 6
  let tx_packets = 48

  let fixture () =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let app = System.new_domain sys "app" in
    let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
    (sys, k, app, net)

  (* Push [b] packets for port 7 through driver + stack; that processing
     is identical on both rx paths and stays outside the measurement. *)
  let deliver k b =
    let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
    let packet =
      Bytes.to_string (E4.make_packet ctx ~dst:42 (String.length payload))
    in
    for _ = 1 to b do
      Nic.inject (Kernel.nic k) packet
    done;
    Kernel.step k ~ticks:(b + 4) ()

  (* rx baseline: the app pulls each packet out of the stack's mailbox
     with a proxy call — one crossing per packet *)
  let rx_proxy_per_packet b =
    let _sys, k, app, _net = fixture () in
    let uctx = Kernel.ctx k app in
    let proxy = Kernel.bind k app "/services/stack" in
    let recv () =
      ignore (Invoke.call_exn uctx proxy ~iface:"stack" ~meth:"recv" [ Value.Int 7 ])
    in
    ignore
      (Invoke.call_exn uctx proxy ~iface:"stack" ~meth:"bind_port" [ Value.Int 7 ]);
    deliver k 1;
    recv ();
    (* warm-up: lazy binds *)
    let clock = Kernel.clock k in
    let total = ref 0 in
    for _ = 1 to rounds do
      deliver k b;
      let before = Clock.now clock in
      for _ = 1 to b do
        recv ()
      done;
      total := !total + (Clock.now clock - before)
    done;
    float_of_int !total /. float_of_int (rounds * b)

  (* rx channel path: the stack's sink enqueues each delivery on the
     port's ring; the app drains the whole burst with one recv_batch *)
  let rx_chan_per_packet b =
    let sys, k, app, net = fixture () in
    let nsc, _svc = System.channel_net sys net ~rx_slots:128 () in
    let chan =
      match Netstack_chan.bind nsc ~port:7 ~owner:app ~mode:Chan.Poll () with
      | Ok c -> c
      | Error e -> failwith e
    in
    let uctx = Kernel.ctx k app in
    let drain expect =
      (* zero-copy contract: the ring moves no payload bytes; the parse
         below is where the app materialises (and pays for) them *)
      let msgs = Chan.recv_batch ~account:false chan () in
      List.iter
        (fun m ->
          match Netwire.Delivery.parse uctx m with
          | Ok _ -> ()
          | Error e -> failwith e)
        msgs;
      if List.length msgs < expect then failwith "E16: ring under-delivered"
    in
    deliver k 1;
    drain 1;
    let clock = Kernel.clock k in
    let total = ref 0 in
    for _ = 1 to rounds do
      deliver k b;
      let before = Clock.now clock in
      drain b;
      total := !total + (Clock.now clock - before)
    done;
    float_of_int !total /. float_of_int (rounds * b)

  (* tx: [p] producer domains each push their share of the burst.
     Measured span: every submission plus whatever it takes to hand the
     frames to the driver (the stack-side drain for the MPSC path); the
     NIC's one-DMA-per-tick flush is common and excluded. *)
  let tx_args =
    [ Value.Int 13; Value.Int 7; Value.Int 9;
      Value.Blob (Bytes.of_string payload) ]

  let flush_wire k n =
    Kernel.step k ~ticks:(n + 4) ();
    let frames = Nic.take_transmitted (Kernel.nic k) in
    if List.length frames <> n then
      failwith
        (Printf.sprintf "E16: expected %d frames on the wire, saw %d" n
           (List.length frames))

  let tx_proxy_per_packet p =
    let sys, k, _app, _net = fixture () in
    let doms =
      List.init p (fun i -> System.new_domain sys (Printf.sprintf "ptx%d" i))
    in
    let proxies =
      List.map (fun d -> (d, Kernel.bind k d "/services/stack")) doms
    in
    let send (d, proxy) =
      ignore (Invoke.call_exn (Kernel.ctx k d) proxy ~iface:"stack" ~meth:"send" tx_args)
    in
    send (List.hd proxies);
    flush_wire k 1;
    (* warm-up *)
    let per = tx_packets / p in
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    List.iter (fun pr -> for _ = 1 to per do send pr done) proxies;
    let total = Clock.now clock - before in
    flush_wire k (per * p);
    float_of_int total /. float_of_int (per * p)

  let tx_chan_per_packet p =
    let sys, k, _app, net = fixture () in
    let nsc, _svc = System.channel_net sys net () in
    (* Poll mode so the stack-side drain is explicit — and measured *)
    Netstack_chan.set_tx_mode nsc Chan.Poll;
    let mmu = Machine.mmu (Kernel.machine k) in
    let doms =
      List.init p (fun i -> System.new_domain sys (Printf.sprintf "ctx%d" i))
    in
    let txs = List.map (fun d -> (d, Netstack_chan.attach_tx nsc ~producer:d)) doms in
    let submit (d, tx) =
      Mmu.switch_context mmu d.Domain.id;
      if not (Netstack_chan.submit tx (Kernel.ctx k d) ~dst:13 ~sport:7 ~dport:9
                (Bytes.of_string payload))
      then failwith "E16: tx ring full"
    in
    let kid = (Kernel.kernel_domain k).Domain.id in
    submit (List.hd txs);
    Mmu.switch_context mmu kid;
    ignore (Netstack_chan.drain_tx nsc);
    flush_wire k 1;
    (* warm-up *)
    let per = tx_packets / p in
    let clock = Kernel.clock k in
    let reserves0 = Clock.read clock Clock.Mpsc_reserve in
    let before = Clock.now clock in
    List.iter (fun ptx -> for _ = 1 to per do submit ptx done) txs;
    Mmu.switch_context mmu kid;
    let drained = Netstack_chan.drain_tx nsc in
    let total = Clock.now clock - before in
    if drained <> per * p then failwith "E16: MPSC drain lost submissions";
    let reserves = Clock.read clock Clock.Mpsc_reserve - reserves0 in
    if reserves <> per * p then failwith "E16: reserve accounting is off";
    flush_wire k (per * p);
    (float_of_int total /. float_of_int (per * p), reserves)

  let rec run () =
    header "E16  Channel-backed network data path (Pm_net)"
      "per-port rings on rx and an MPSC group on tx replace the per-packet \
       proxy crossing with shared-word traffic charged by the cost model";
    let rx =
      List.map
        (fun b -> (b, rx_proxy_per_packet b, rx_chan_per_packet b))
        batch_sizes
    in
    print_table
      ~columns:
        [ ("batch", ()); ("proxy cyc/pkt", ()); ("ring cyc/pkt", ());
          ("speedup", ()) ]
      (List.map (fun (b, p, c) -> [ i b; f1 p; f1 c; f2 (p /. c) ^ "x" ]) rx);
    line "(rx consumption, 64B payloads: per-packet proxy recv vs one recv_batch";
    line " drain per burst; stack-side processing is identical and excluded)";
    (match List.find_opt (fun (b, _, _) -> b = 64) rx with
    | Some (_, p, c) ->
      let speedup = p /. c in
      if speedup < 5.0 then
        failwith (Printf.sprintf "E16: channel rx only %.2fx proxy at batch 64" speedup);
      line "=> at batch 64 the ring delivers at %.2fx the proxy path (>= 5x target)"
        speedup
    | None -> ());
    line "";
    line "-- tx: per-producer proxy sends vs the shared MPSC group --";
    let tx =
      List.map
        (fun p ->
          let proxy = tx_proxy_per_packet p in
          let chan, reserves = tx_chan_per_packet p in
          (p, proxy, chan, reserves))
        producer_counts
    in
    print_table
      ~columns:
        [ ("producers", ()); ("proxy cyc/pkt", ()); ("mpsc cyc/pkt", ());
          ("speedup", ()); ("reserves", ()) ]
      (List.map
         (fun (p, pr, c, r) -> [ i p; f1 pr; f1 c; f2 (pr /. c) ^ "x"; i r ])
         tx);
    line "(submission through hand-off to the driver; every send pays one";
    line " group-header reserve — %d cycles with default costs — visible above"
      (Cost.mpsc_reserve Cost.default);
    line " as the mpsc_reserve counter; the NIC flush is common and excluded)";
    smp_contention ()

  (* tx under SMP: the reserve's CAS loop. A producer on another CPU
     whose sub-ring holds pending traffic is a live contender for the
     group header word; each costs the reserving producer one CAS retry.
     Contention needs true parallelism, so it is structurally zero on
     uniprocessor runs — every table above is unchanged. *)
  and smp_contention () =
    line "";
    line "-- tx under SMP: group-header CAS contention (producers round-robin on 2 CPUs) --";
    let cas = Cost.default.Cost.cas in
    let rows =
      List.map
        (fun p ->
          let sys = System.create ~seed:0xBEEF ~cpus:2 () in
          let k = System.kernel sys in
          let machine = Kernel.machine k in
          let cpx = System.cpu sys in
          let kdom = Kernel.kernel_domain k in
          let g =
            Mpsc.create machine (Kernel.vmem k) ~name:"smp-tx" ~slots:8
              ~slot_size:128 ~mode:Chan.Poll ~consumer:kdom ()
          in
          let txs =
            List.init p (fun idx ->
                let d = System.new_domain sys (Printf.sprintf "smp-tx%d" idx) in
                Cpu.pin cpx ~domain:d.Domain.id ~cpu:(idx mod 2);
                (d, Mpsc.attach g ~producer:d))
          in
          let mmu = Machine.mmu machine in
          let kid = (Kernel.kernel_domain k).Domain.id in
          let msg = Bytes.of_string payload in
          let send (d, tx) =
            Mmu.switch_context mmu d.Domain.id;
            if not (Mpsc.try_send tx msg) then failwith "E16: smp ring full";
            Mmu.switch_context mmu kid
          in
          let clock = Machine.clock machine in
          let measure () =
            let before = Clock.now clock in
            send (List.hd txs);
            Clock.now clock - before
          in
          (* sub-rings empty: the flat reserve *)
          let quiet = measure () in
          (* every other producer leaves traffic pending; the ones on
             the other CPU become live contenders *)
          List.iteri (fun idx dtx -> if idx > 0 then send dtx) txs;
          let contenders = (p - 1) - ((p - 1) / 2) in
          let retries0 = Clock.read clock Clock.Mpsc_cas_retry in
          let contended = measure () in
          let retries = Clock.read clock Clock.Mpsc_cas_retry - retries0 in
          if contended - quiet <> contenders * cas then
            failwith
              (Printf.sprintf
                 "E16: %d contenders cost %d extra cycles, model says %d" p
                 (contended - quiet) (contenders * cas));
          if retries <> contenders then
            failwith "E16: cas retry accounting is off";
          [ i p; i contenders; i quiet; i contended; i (contenders * cas) ])
        producer_counts
    in
    print_table
      ~columns:
        [ ("producers", ()); ("contenders", ()); ("quiet cyc/send", ());
          ("contended", ()); ("model extra", ()) ]
      rows;
    line "(one send from producer 0, pinned to CPU 0, while the others hold";
    line " pending traffic; each cross-CPU contender costs one %d-cycle CAS" cas;
    line " retry — mpsc_reserve_n = mpsc_reserve + contenders x cas — and the";
    line " retries surface as the mpsc_cas_retry counter; same-CPU producers";
    line " and idle rings cost nothing, so uniprocessor runs never pay this)"
end

(* ------------------------------------------------------------------ *)
(* E-OBS: tracing overhead and the /nucleus/trace service              *)
(* ------------------------------------------------------------------ *)

module Eobs = struct
  let budget = Cost.traced_dispatch Cost.default

  (* 1. per-call tracing tax at the E1 grain sizes *)
  let invoke_overhead () =
    line "-- method invocation: tracing disabled vs enabled (cycles/call) --";
    let fx = E1.make_fixture () in
    let obs = Clock.obs fx.E1.clock in
    let invoke g () =
      ignore
        (Invoke.call fx.E1.ctx fx.E1.plain ~iface:"work" ~meth:"run" [ Value.Int g ])
    in
    let rows =
      List.map
        (fun g ->
          Obs.disable obs;
          let off = E1.cycles_per_call fx (invoke g) in
          Obs.enable obs;
          let on = E1.cycles_per_call fx (invoke g) in
          Obs.disable obs;
          (* enabled-path regression guard: the tax over an untraced dispatch
             stays exactly traced_dispatch - dispatch, accounting included *)
          let tax = budget - Cost.dispatch Cost.default in
          assert (Float.abs (on -. off -. float_of_int tax) < 0.001);
          [ i g; f1 off; f1 on; f1 (on -. off); i budget ])
        E1.grains
    in
    print_table
      ~columns:
        [ ("grain(cyc)", ()); ("traced off", ()); ("traced on", ());
          ("overhead", ()); ("budget", ()) ]
      rows;
    line "(budget: one indirect_call + one mem_write = %d cycles per span)" budget

  (* 2. the traced cross-domain path: every layer adds exactly one span *)
  let crossdomain_overhead () =
    line "";
    line "-- cross-domain RPC: spans at each layer (cycles/call, 1-word arg) --";
    let k, _, udom, _, _, proxy = E3.fixture () in
    let clock = Kernel.clock k in
    let obs = Clock.obs clock in
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
    let ctx = Kernel.ctx k udom in
    let cycles () =
      let before = Clock.now clock in
      for _ = 1 to 100 do
        ignore (Invoke.call ctx proxy ~iface:"echo" ~meth:"echo" [ Value.Int 1 ])
      done;
      float_of_int (Clock.now clock - before) /. 100.
    in
    let off = cycles () in
    let journal = Obs.journal obs in
    let spans_before = Journal.count journal Journal.Span_exit in
    Obs.enable obs;
    let snap = Clock.snapshot clock in
    let on = cycles () in
    let deltas = Clock.since clock snap in
    Obs.disable obs;
    print_table
      ~columns:[ ("path", ()); ("cycles/call", ()) ]
      [ [ "untraced"; f1 off ]; [ "traced"; f1 on ];
        [ "overhead"; f1 (on -. off) ] ];
    line "(three spans per RPC: client invoke, proxy crossing, server invoke)";
    line "traced run: %d cycles; counter deltas: %s" deltas.Clock.at
      (String.concat ", "
         (List.map (fun (n, d) -> Printf.sprintf "%s=%d" n d) deltas.Clock.counts));
    (* what the journal saw: every span is a Span_enter/Span_exit pair *)
    line "journal: %d spans recorded"
      (Journal.count journal Journal.Span_exit - spans_before);
    (match Metrics.summary (Obs.metrics obs) ~domain:udom.Domain.id "proxy.call" with
    | Some s -> line "proxy.call latency: %s" (Metrics.summary_to_text s)
    | None -> ());
    match Metrics.summary (Obs.metrics obs) ~domain:udom.Domain.id "invoke.dispatch" with
    | Some s -> line "invoke.dispatch latency: %s" (Metrics.summary_to_text s)
    | None -> ()

  (* 3. the whole loop through /nucleus/trace, cross-domain *)
  let trace_service () =
    line "";
    line "-- the trace service, driven from a user domain --";
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
    let udom = System.new_domain sys "observer" in
    let trace = Kernel.bind k udom "/nucleus/trace" in
    line "bind /nucleus/trace from user domain: %s"
      (if Proxy.is_proxy trace then "proxy (system call)" else "local");
    let uctx = Kernel.ctx k udom in
    let call m args = Invoke.call_exn uctx trace ~iface:"trace" ~meth:m args in
    ignore (call "start" []);
    (match call "interpose" [ Value.Str "/shared/network" ] with
    | Value.Int h -> line "interpose /shared/network -> agent handle %d" h
    | _ -> ());
    (* traffic through the agent: re-bind picks up the interposer *)
    let driver = Kernel.bind k kdom "/shared/network" in
    let kctx = Kernel.ctx k kdom in
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
    for _ = 1 to 8 do
      ignore
        (Invoke.call_exn kctx driver ~iface:"netdev" ~meth:"send"
           [ Value.Blob (Bytes.create 64) ])
    done;
    Kernel.step k ~ticks:2 ();
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
    (match call "histogram" [ Value.Int kdom.Domain.id; Value.Str "invoke.dispatch" ] with
    | Value.Str s -> line "histogram(kernel, invoke.dispatch): %s" s
    | _ -> ());
    ignore (call "uninterpose" [ Value.Str "/shared/network" ]);
    ignore (call "stop" []);
    (* the driver instance behind the name is the original again *)
    let restored = Kernel.bind k kdom "/shared/network" in
    line "after uninterpose, /shared/network resolves to the original: %b"
      (restored == net.System.driver)

  let run () =
    header "E-OBS  Kernel-wide tracing via interposing agents"
      "\"an interposing agent [...] can be used for debugging, monitoring\" (§2): \
       observability is an ordinary object composition, free when disabled";
    invoke_overhead ();
    crossdomain_overhead ();
    trace_service ()
end

(* ------------------------------------------------------------------ *)
(* E18: journal overhead — a complete history at zero cycle cost       *)
(* ------------------------------------------------------------------ *)

module E18 = struct
  (* one representative workload: boot, wire the network, run traffic.
     Traps, IRQs, crossings and structural events all fire, so every
     journal instrumentation point is exercised. *)
  let workload () =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
    let ctx = Kernel.ctx k kdom in
    ignore
      (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"bind_port"
         [ Value.Int 7 ]);
    for _ = 1 to 32 do
      ignore
        (Invoke.call_exn ctx net.System.driver ~iface:"netdev" ~meth:"send"
           [ Value.Blob (Bytes.create 64) ]);
      Kernel.step k ~ticks:1 ()
    done;
    let clock = Kernel.clock k in
    (Clock.now clock, Obs.journal (Clock.obs clock))

  (* run the workload with new journals starting in [mode]; the module
     default is restored even if the workload raises *)
  let under mode =
    Journal.set_default_mode mode;
    Fun.protect
      ~finally:(fun () -> Journal.set_default_mode Journal.Tail)
      workload

  let run () =
    header "E18  Journalling: complete system history at zero cycle cost"
      "the journal extends the tracing story (E-OBS): recording an event is a \
       plain store, never a machine step, so a fully journalled run costs the \
       same cycles as an unjournalled one";
    let cyc_tail, j_tail = under Journal.Tail in
    let cyc_full, j_full = under Journal.Full in
    print_table
      ~columns:
        [ ("journal mode", ()); ("run cycles", ()); ("events written", ());
          ("complete", ()) ]
      [
        [ "tail (default)"; i cyc_tail; i (Journal.written j_tail);
          string_of_bool (Journal.complete j_tail) ];
        [ "full"; i cyc_full; i (Journal.written j_full);
          string_of_bool (Journal.complete j_full) ];
      ];
    (* the zero-cost contract E1..E16 rely on: byte-identical results
       whatever the journal mode *)
    assert (cyc_tail = cyc_full);
    assert (Journal.written j_tail = Journal.written j_full);
    line "identical cycles and event counts under both modes";
    line "tail mode keeps %d recent events + the full structural archive;"
      (Journal.tail_capacity j_tail);
    line "full mode retains everything (%d held here): the replay substrate"
      (Journal.retained j_full);
    line "tail: %s" (Journal.stats_line j_tail);
    line "full: %s" (Journal.stats_line j_full)
end

(* ------------------------------------------------------------------ *)
(* E19: the block path — cached vs uncached vs raw-device cycles/op    *)
(* ------------------------------------------------------------------ *)

module E19 = struct
  (* working set: 16 blocks, inside the 32-line cache, so the measured
     cached loop is pure hits *)
  let blocks = 16
  let ops = 128

  let run () =
    header "E19  Block path: cached vs uncached vs raw-device cycles/op"
      "storage assembled from interposable components costs only a small \
       constant over the raw device, and a hit in the write-back cache \
       lends the block: one dispatch, no copy, no device; a write takes \
       the writer's block for the same dispatch";
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let store =
      System.setup_store sys ~placement:System.Certified ~count:256
        ~cache_capacity:32 ()
    in
    let kdom = Kernel.kernel_domain k in
    Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
    let ctx = Kernel.ctx k kdom in
    let clock = Kernel.clock k in
    let read inst b =
      ignore
        (Invoke.call_exn ctx inst ~iface:"block" ~meth:"read" [ Value.Int b ])
    in
    let measure inst =
      (* warm pass: first-touch work and, for the cache, the misses that
         load the working set — excluded from the measured loop *)
      for b = 0 to blocks - 1 do
        read inst b
      done;
      let t0 = Clock.now clock in
      for n = 0 to ops - 1 do
        read inst (n mod blocks)
      done;
      (Clock.now clock - t0) / ops
    in
    let raw = measure store.System.blk_driver in
    let uncached = measure store.System.partition in
    let cached = measure store.System.block_cache in
    (* full-block writes into the resident working set: each dirties a
       line, and the writer has already paid for its block's bytes *)
    let cached_write =
      let block = Value.Blob (Bytes.make 512 'w') in
      let t0 = Clock.now clock in
      for n = 0 to ops - 1 do
        ignore
          (Invoke.call_exn ctx store.System.block_cache ~iface:"block" ~meth:"write"
             [ Value.Int (n mod blocks); block ])
      done;
      (Clock.now clock - t0) / ops
    in
    let vs x = Printf.sprintf "%.2fx" (float_of_int x /. float_of_int raw) in
    print_table
      ~columns:[ ("path", ()); ("cycles/op", ()); ("vs raw", ()) ]
      [
        [ "raw device (/store/blkdrv)"; i raw; vs raw ];
        [ "uncached stack (/store/part0)"; i uncached; vs uncached ];
        [ "cached stack hit (/store/cache0)"; i cached; vs cached ];
        [ "cached write (/store/cache0)"; i cached_write; vs cached_write ];
      ];
    let costs = ctx.Call_ctx.costs in
    let media = Cost.blk_op costs ~bytes:512 in
    let dispatch = Cost.dispatch costs in
    line "media transfer alone is %d cycles/block; a method dispatch is %d" media
      dispatch;
    (* the asserted bounds: (a) every layer of the stack adds only a
       small constant over the raw device, (b) a cache hit skips the
       media entirely, (c) a hit costs no more than the dispatch that
       reaches the cache: the line is lent, not copied, and (d) neither
       does a full-block write: the cache takes the writer's block *)
    assert (uncached - raw < 200);
    assert (cached <= raw - media + 200);
    assert (cached <= dispatch);
    assert (cached_write <= dispatch);
    line "uncached adds %d cycles/op over raw: the partition layer is constant"
      (uncached - raw);
    line "a hit lends the block for %d cycles: one dispatch, no copy, no device"
      cached;
    line "a full-block write takes the block for %d cycles: one dispatch, no copy"
      cached_write
end

(* ------------------------------------------------------------------ *)
(* E20: the KV workload over the channel-backed net path               *)
(* ------------------------------------------------------------------ *)

(* one E20/E21 round trip: send, step the kernel, drain the reply ring.
   Every response must be status_ok — every get hits a key we put, and a
   failing put (e.g. a full log) must abort the bench, not be silently
   counted as a reply. Returns the replies drained. *)
let kv_round_trip name k client ~op ~key value =
  ignore (Kv.send client ~op ~key value);
  Kernel.step k ~ticks:2 ();
  List.fold_left
    (fun n -> function
      | Error e -> failwith (name ^ ": " ^ e)
      | Ok { Storewire.Kvmsg.status; _ } ->
        if status <> Storewire.Kvmsg.status_ok then
          failwith
            (Printf.sprintf "%s: kv op %d on %s failed with status %d" name op key
               status);
        n + 1)
    0 (Kv.replies client)

module E20 = struct
  (* working sets straddling the 16-line cache, counted in blocks of
     records: the log packs 25 of these 20-byte records into a block, so
     100 keys (4 blocks) stay resident, 400 (16 blocks) fill the cache
     until an update opens a block, and 1,200 (48 blocks) spill and pay
     media time on the get path *)
  let working_sets = [ 100; 400; 1_200 ]
  let per_block = 25
  let ops = 96

  (* the steady state's [n]th key: each op visits the next block, so the
     sweep walks the whole working set's blocks, not just its first few *)
  let key_of ws n =
    let blocks = ws / per_block in
    Printf.sprintf "k%04d" (((n mod blocks * per_block) + (n / blocks)) mod ws)

  let percentile p samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (p * n / 100))

  (* one full client/server system per working set: loopback network,
     channel-backed stack, block store underneath, KV on port 70 *)
  let run_ws ws =
    let sys = fresh_sys () in
    let k = System.kernel sys in
    let _kv, client =
      System.setup_kv sys ~placement:System.Certified ~cache_capacity:16
    in
    let clock = Kernel.clock k in
    let replies = ref 0 and requests = ref 0 in
    let request ~op ~key value =
      let t0 = Clock.now clock in
      incr requests;
      replies := !replies + kv_round_trip "E20" k client ~op ~key value;
      Clock.now clock - t0
    in
    (* load phase: populate the working set *)
    for n = 0 to ws - 1 do
      ignore
        (request ~op:Storewire.kv_put
           ~key:(Printf.sprintf "k%04d" n)
           (Printf.sprintf "value-%04d" n))
    done;
    (* steady state: sweep gets with an update every 7th op, a period
       prime to every row's block count, so the stride's gets also reach
       the blocks its updates evict *)
    let samples = ref [] in
    let fills0 = Clock.read clock Clock.Tlb_fill in
    for n = 0 to ops - 1 do
      let key = key_of ws n in
      let c =
        if n mod 7 = 6 then
          request ~op:Storewire.kv_put ~key (Printf.sprintf "update-%04d" n)
        else request ~op:Storewire.kv_get ~key ""
      in
      samples := c :: !samples
    done;
    assert (!replies = !requests);
    (* the steady state's samples and the cycles it spent on TLB fills *)
    let fills = Clock.read clock Clock.Tlb_fill - fills0 in
    (List.rev !samples, fills * (Machine.costs (Kernel.machine k)).Cost.tlb_fill)

  let run () =
    header "E20  KV over the channel-backed net path"
      "the first whole-system workload — client domain -> net rings -> KV \
       server -> log -> cache -> partition -> DMA ring — holds its tail \
       latency while the working set fits the cache, and degrades by a \
       bounded device-path cost per op when it spills";
    let runs = List.map (fun ws -> (ws, run_ws ws)) working_sets in
    let rows =
      List.map
        (fun (ws, (samples, _)) ->
          let n = List.length samples in
          let total = List.fold_left ( + ) 0 samples in
          let mean = total / n in
          let p50 = percentile 50 samples and p99 = percentile 99 samples in
          (* throughput in ops per million simulated cycles *)
          let tput = float_of_int n *. 1_000_000. /. float_of_int total in
          (ws, mean, p50, p99, tput))
        runs
    in
    print_table
      ~columns:
        [ ("working set", ()); ("ops", ()); ("mean cyc/op", ());
          ("p50 cyc/op", ()); ("p99 cyc/op", ()); ("ops/Mcycle", ()) ]
      (List.map
         (fun (ws, mean, p50, p99, tput) ->
           [ Printf.sprintf "%d keys" ws; i ops; i mean; i p50; i p99;
             f1 tput ])
         rows);
    (* asserted shape: the resident run's tail is flat (no op reaches the
       device), cost grows monotonically with the working set, and the
       spill tail is bounded by a constant number of media-transfer
       equivalents over the resident median. A clean spilled get pays
       exactly one uncached device read; a dirty spill adds the LRU
       writeback. Each transfer also pays the driver's block copy, whose
       writes hit the TLB like its reads, so the worst op pays two media
       transfers plus two block copies: 3 media transfers bound it. *)
    let media = Cost.blk_op Cost.default ~bytes:512 in
    (match rows with
    | (_, _, p50, p99, _) :: _ ->
      assert (p99 >= p50);
      assert (p99 - p50 < media)
    | [] -> assert false);
    let means = List.map (fun (_, mean, _, _, _) -> mean) rows in
    List.iter2
      (fun a b -> assert (a <= b))
      (List.tl (List.rev means) |> List.rev)
      (List.tl means);
    let resident_p50 =
      match rows with (_, _, p50, _, _) :: _ -> p50 | [] -> assert false
    in
    List.iter
      (fun (_, _, p50, p99, _) ->
        assert (p99 >= p50);
        assert (p99 <= resident_p50 + (3 * media)))
      rows;
    (* the sweep visits a different block on each op, so at the largest
       working set the median get itself goes to the device *)
    let spilled_ws, spilled_p50 =
      match List.rev rows with (ws, _, p50, _, _) :: _ -> (ws, p50) | [] -> assert false
    in
    assert (spilled_p50 >= resident_p50 + media);
    line "the resident tail is flat (p99 - p50 < one media transfer of %d \
          cycles); mean cost grows monotonically with the working set; and \
          every p99 stays within 3 media transfers of the resident median — \
          a dirty spill pays one writeback and one uncached device read, \
          plus their two block copies" media;
    line "the spilled median pays the device: %d cycles at %d keys, %d over \
          the resident median" spilled_p50 spilled_ws (spilled_p50 - resident_p50);
    (* no translation artifact may dominate the op: TLB refills stay a
       small share of the steady state's cycles *)
    let shares =
      List.map
        (fun (ws, (samples, fill_cyc)) ->
          let total = List.fold_left ( + ) 0 samples in
          let share = 100. *. float_of_int fill_cyc /. float_of_int total in
          assert (share < 5.);
          Printf.sprintf "%.1f%% at %d keys" share ws)
        runs
    in
    line "steady-state tlb_fill share of cycles: %s (each under 5%%)"
      (String.concat ", " shares)
end

(* ------------------------------------------------------------------ *)
(* E21: causal request tracing and per-layer attribution               *)
(* ------------------------------------------------------------------ *)

module E21 = struct
  (* the attribution telescopes by construction; epsilon is a
     cross-check of the fold, not a tolerance for lost cycles *)
  let epsilon = 2
  (* 24 blocks of 25 records straddle the 16-line cache: the load phase
     evicts *)
  let ws = 600

  type outcome = {
    reqs : Query.request list;
    measured : (string * int) list; (* label, measured end-to-end cycles *)
  }

  (* E20's client/server KV workload, with every request bracketed by
     req_begin/req_end: load [ws] puts through the cache, then get one
     evicted key and one resident key. With [traced] off the brackets
     mint nothing and record nothing — the zero-cost contract. *)
  let run_workload ?costs ~traced () =
    Journal.set_default_mode Journal.Full;
    Trace.set_enabled traced;
    Trace.reset ();
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Journal.set_default_mode Journal.Tail)
      (fun () ->
        let sys = System.create ~seed:0xBEEF ?costs () in
        let k = System.kernel sys in
        let _kv, client =
          System.setup_kv sys ~placement:System.Certified ~cache_capacity:16
        in
        let cdom = client.Kv.dom in
        let clock = Kernel.clock k in
        let j = Obs.journal (Clock.obs clock) in
        let replies = ref 0 and requests = ref 0 in
        let measured = ref [] in
        let request ~op ~key value =
          let label =
            (if op = Storewire.kv_put then "put "
             else if op = Storewire.kv_get then "get "
             else "del ")
            ^ key
          in
          let t0 = Clock.now clock in
          let rid = Journal.req_begin j ~domain:cdom.Domain.id ~at:t0 ~detail:label in
          incr requests;
          replies := !replies + kv_round_trip "E21" k client ~op ~key value;
          let t1 = Clock.now clock in
          Journal.req_end j ~domain:cdom.Domain.id ~at:t1 rid;
          measured := (label, t1 - t0) :: !measured
        in
        for n = 0 to ws - 1 do
          request ~op:Storewire.kv_put
            ~key:(Printf.sprintf "k%04d" n)
            (Printf.sprintf "value-%04d" n)
        done;
        (* k0000 left the cache during the load; the last key is resident *)
        request ~op:Storewire.kv_get ~key:"k0000" "";
        request ~op:Storewire.kv_get ~key:(Printf.sprintf "k%04d" (ws - 1)) "";
        assert (!replies = !requests);
        let reqs =
          if not traced then []
          else
            match Query.fold ~complete:(Journal.complete j) (Journal.history j) with
            | Ok rs -> rs
            | Error e -> failwith ("E21: fold failed: " ^ e)
        in
        { reqs; measured = List.rev !measured })

  let find_req label reqs =
    match List.find_opt (fun r -> String.equal r.Query.label label) reqs with
    | Some r -> r
    | None -> failwith ("E21: no traced request " ^ label)

  (* every request's per-layer attribution must telescope to its
     measured end-to-end latency *)
  let assert_telescopes o =
    List.iter
      (fun r ->
        let total =
          List.fold_left (fun acc (_, n) -> acc + n) 0 (Query.attribution r)
        in
        assert (abs (total - Query.duration r) <= epsilon);
        let m = List.assoc r.Query.label o.measured in
        assert (abs (total - m) <= epsilon))
      o.reqs

  let run () =
    header "E21  Causal request tracing across the KV path"
      "a request id minted at ingress rides the wire through net, kv, log, \
       cache, partition and driver; folding the journal back attributes \
       every end-to-end cycle to exactly one layer, names the media wait on \
       a spilled get, and costs nothing when tracing is off";
    (* 1. zero simulated cost: the same workload, tracing off vs on *)
    let off = run_workload ~traced:false () in
    let on = run_workload ~traced:true () in
    let deltas =
      List.map2
        (fun (l1, c1) (l2, c2) ->
          assert (String.equal l1 l2);
          c2 - c1)
        off.measured on.measured
    in
    let d0 = match deltas with d :: _ -> d | [] -> assert false in
    List.iter (fun d -> assert (d = d0)) deltas;
    assert (d0 >= 0 && d0 < 1_000);
    line "tracing on costs a flat %d cycles/request — the rid bytes riding \
          each wire leg; the journal stores themselves are cycle-free, and \
          with tracing off the %d latencies are untouched"
      d0
      (List.length off.measured);
    (* 2. attribution telescopes to the measured latency, per request *)
    assert_telescopes on;
    line "attribution telescopes: sum over layers = end-to-end cycles for \
          every request (epsilon %d)" epsilon;
    (* 3. per-layer totals, default media vs a slow disk; on the slow
       disk the device wait dominates the spilled get, so its critical
       path must name the media *)
    let slow_costs = { Cost.default with blk_seek = 200_000 } in
    let slow = run_workload ~costs:slow_costs ~traced:true () in
    assert_telescopes slow;
    let totals_on = Query.layer_totals on.reqs in
    let totals_slow = Query.layer_totals slow.reqs in
    let layers =
      List.map fst totals_on
      @ List.filter
          (fun l -> not (List.mem_assoc l totals_on))
          (List.map fst totals_slow)
    in
    print_table
      ~columns:
        [ ("layer", ()); ("cycles (default media)", ());
          ("cycles (slow media)", ()) ]
      (List.map
         (fun l ->
           let v tl = match List.assoc_opt l tl with Some n -> i n | None -> "0" in
           [ l; v totals_on; v totals_slow ])
         layers);
    let spilled = find_req "get k0000" slow.reqs in
    let resident = find_req (Printf.sprintf "get k%04d" (ws - 1)) slow.reqs in
    assert (
      List.exists (fun (_, d, _) -> String.equal d "cache-miss") spilled.Query.notes);
    assert (
      List.exists (fun (_, d, _) -> String.equal d "cache-hit") resident.Query.notes);
    let path = Query.critical_path spilled in
    assert (List.mem "media" path);
    line "spilled get k0000 (slow media): cache-miss, critical path %s"
      (String.concat ">" path);
    line "resident get stays out of the device path: critical path %s"
      (String.concat ">" (Query.critical_path resident));
    (* 4. tracing leaves no residue: an untraced recording made after a
       traced one is byte-identical to one made before — the E1..E20
       outputs and every untraced export keep their bytes *)
    let record_kv () =
      match Replay.record "kv" with
      | Ok r -> r
      | Error e -> failwith ("E21: record failed: " ^ e)
    in
    let r1 = record_kv () in
    Trace.set_enabled true;
    let r2 = record_kv () in
    Trace.set_enabled false;
    let r3 = record_kv () in
    assert (String.equal r1.Replay.journal r3.Replay.journal);
    assert (String.equal r1.Replay.stats r3.Replay.stats);
    assert (not (String.equal r1.Replay.journal r2.Replay.journal));
    line "tracing off after on: untraced recordings stay byte-identical \
          (traced one carries %d more journal bytes)"
      (String.length r2.Replay.journal - String.length r1.Replay.journal)
end

(* ------------------------------------------------------------------ *)
(* E22: loop-bearing bytecode in the Verified placement                *)
(* ------------------------------------------------------------------ *)

module E22 = struct
  (* E15 admitted a straight-line filter; the widened verifier admits a
     whole-window checksum scan — a backward-jumping loop — with a
     machine-checked fuel bound affine in the window length L. The loop
     then runs at raw per-instruction cost (zero per-access overhead,
     like certification), while SFI pays its masking tax on every one of
     the ~10L executed instructions. *)

  let filter_src = "sum[0 .. len](byte[idx]) & 255 == 73"
  let window = 2048

  let run () =
    header "E22  Verified loops: a proven fuel bound admits a checksum scan"
      "loop-bearing bytecode earns the Verified placement: the worklist \
       fixpoint with widening proves memory safety and an affine trip bound \
       at once, so the kernel meters the loop against its own proof instead \
       of refusing backward jumps outright";
    let program =
      match Filterc.compile_string filter_src with
      | Ok p -> p
      | Error e -> failwith ("E22: " ^ e)
    in
    let code = Vm.encode program in
    (* the static proof, with the bound the loader will meter against *)
    let fb =
      match Verify.verify program with
      | Verify.Verified { fuel; _ } -> fuel
      | Verify.Rejected _ as v ->
        failwith ("E22: " ^ Verify.verdict_to_string v)
    in
    assert (fb.Verify.per_len >= 1);
    let bound = Verify.fuel_for fb ~len:window in
    let rewritten =
      match
        Sfi_rewrite.rewrite program ~window_size:(Sfi_rewrite.padded_size window)
      with
      | Ok p -> p
      | Error e -> failwith ("E22: " ^ e)
    in
    (* a packet whose byte sum lands on the checksum: 'p' everywhere,
       first byte chosen so sum mod 256 = 73 *)
    let pkt = Bytes.make window 'p' in
    Bytes.set pkt 0 (Char.chr ((73 - (Char.code 'p' * (window - 1))) land 255));
    let clock = Clock.create () in
    let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
    let cost_of ~fuel prog =
      let before = Clock.now clock in
      for _ = 1 to 20 do
        match Vm.run ctx ~mem:(Vm.mem_of_bytes pkt) ~fuel prog with
        | Vm.Returned 1 -> ()
        | Vm.Returned v -> failwith (Printf.sprintf "E22: filter returned %d" v)
        | Vm.Wild_access _ -> failwith "E22: wild access"
        | Vm.Vm_fault m -> failwith ("E22: " ^ m)
      done;
      float_of_int (Clock.now clock - before) /. 20.
    in
    (* the verified run is metered against exactly the proven bound — a
       fault here would disprove the proof; SFI is outside it and gets a
       policy allowance sized to its rewrite overhead *)
    let raw_run = cost_of ~fuel:bound program in
    let verified_run = cost_of ~fuel:bound program in
    let sfi_run = cost_of ~fuel:((3 * bound) + 1024) rewritten in
    assert (verified_run = raw_run);
    (* one-off admission cost, charged per instruction by the service *)
    let sys = fresh_sys () in
    let certsvc = Kernel.certification (System.kernel sys) in
    let kclock = Kernel.clock (System.kernel sys) in
    let before = Clock.now kclock in
    (match Certsvc.verify certsvc ~code with
    | Ok fb' -> assert (fb' = fb)
    | Error e -> failwith ("E22: verifier rejected the scan: " ^ e));
    let verify_cost = Clock.now kclock - before in
    (* end-to-end: unsigned loop bytecode admitted by Verified placement,
       and the loader records the proven bound for the run path *)
    let vimage =
      let base =
        Images.image ~name:"vscan" ~size:(String.length code) ~author:"anyone"
          ~type_safe:false (fun api dom ->
            Instance.create api.Api.registry ~class_name:"verified.scan"
              ~domain:dom.Domain.id [])
      in
      { base with Loader.code }
    in
    (match
       System.install sys vimage ~placement:System.Verified ~at:"/services/vscan"
     with
    | Ok _ -> ()
    | Error e -> failwith ("E22: Verified install failed: " ^ e));
    (match System.verified_fuel sys "vscan" with
    | Some fb' when fb' = fb -> ()
    | Some _ -> failwith "E22: loader recorded a different bound"
    | None -> failwith "E22: loader recorded no bound");
    (* the unbounded cousin stays out, with a named reason at a pc *)
    let unbounded = [| Vm.Const (2, 0); Vm.Jmp 1; Vm.Ret 2 |] in
    let rejection =
      match Verify.verify unbounded with
      | Verify.Rejected _ as v -> Verify.verdict_to_string v
      | Verify.Verified _ -> failwith "E22: unbounded loop must be rejected"
    in
    let overhead = sfi_run -. raw_run in
    print_table
      ~columns:
        [ ("admission", ()); ("one-off cycles", ()); ("cycles/run", ());
          ("per-run overhead", ()) ]
      [
        [ "verified (static proof)"; i verify_cost; f1 verified_run; "0.0" ];
        [ "SFI-rewritten"; "0"; f1 sfi_run; f1 overhead ];
      ];
    line "filter: %s (%d instructions)" filter_src (Vm.instr_count program);
    line "proven fuel bound: %d*L + %d = %d at L = %d (run cost %.1f cyc stays under it)"
      fb.Verify.per_len fb.Verify.fixed bound window verified_run;
    line "crossover vs SFI: the one-off proof pays for itself after %.0f runs"
      (Float.of_int verify_cost /. overhead |> Float.ceil);
    line "backward Jmp cousin: %s" rejection;
    line "=> a loop over all %d bytes ran in the kernel at raw cost, metered by its own proof"
      window
end

(* ------------------------------------------------------------------ *)
(* E23: truly parallel execution over the SMP complex                  *)
(* ------------------------------------------------------------------ *)

module E23 = struct
  let flows = 8
  let cpu_counts = [ 1; 2; 4; 8 ]
  let payload = 48
  let msgs = 48
  let grain = 400

  (* One flow is the E13/E16 shape reduced to its scalable core: a
     producer/consumer ring plus [grain] cycles of compute per message,
     the whole flow pinned to one CPU. With C CPUs the 8 flows split C
     ways; per-CPU clocks advance independently and global virtual time
     is the slowest CPU's — the makespan. *)
  let flow_body machine chan count () =
    let msg = Bytes.make payload 'm' in
    for _ = 1 to count do
      ignore (Chan.try_send chan msg);
      ignore (Chan.try_recv chan);
      Clock.advance (Machine.clock machine) grain;
      Scheduler.yield ()
    done

  let make_flow sys k f =
    let machine = Kernel.machine k in
    let pdom = System.new_domain sys (Printf.sprintf "flow%d-p" f) in
    let cdom = System.new_domain sys (Printf.sprintf "flow%d-c" f) in
    let chan =
      Chan.create machine (Kernel.vmem k) ~name:(Printf.sprintf "flow%d" f)
        ~slots:8 ~slot_size:64 ~producer:pdom ()
    in
    ignore (Chan.accept chan ~into:cdom);
    Chan.set_mode chan Chan.Poll;
    (pdom, cdom, chan)

  (* Makespan of the 8 flows over [cpus] CPUs, flows pinned round-robin. *)
  let run_flows cpus =
    let sys = System.create ~seed:0xBEEF ~cpus () in
    let k = System.kernel sys in
    let machine = Kernel.machine k in
    let smp = System.smp sys in
    let cpx = System.cpu sys in
    List.iter
      (fun f ->
        let pdom, cdom, chan = make_flow sys k f in
        let cpu = f mod cpus in
        Cpu.pin cpx ~domain:pdom.Domain.id ~cpu;
        Cpu.pin cpx ~domain:cdom.Domain.id ~cpu;
        ignore
          (Smp.spawn_on smp cpu ~name:(Printf.sprintf "flow%d" f)
             (flow_body machine chan msgs)))
      (List.init flows Fun.id);
    let before = List.init cpus (fun c -> Cpu.now cpx c) in
    (* steal:false — the curve isolates partitioning; stealing gets its
       own segment below *)
    ignore (Smp.run ~steal:false smp);
    List.fold_left max 0 (List.mapi (fun c b -> Cpu.now cpx c - b) before)

  (* The same per-message model the channels charge: crossing CPUs costs
     [lines] cache-line transfers on the send and again on the recv. *)
  let channel_gap () =
    let sys = System.create ~seed:0xBEEF ~cpus:2 () in
    let k = System.kernel sys in
    let machine = Kernel.machine k in
    let cpx = System.cpu sys in
    let pdom = System.new_domain sys "gap-p" in
    let cdom = System.new_domain sys "gap-c" in
    let chan =
      Chan.create machine (Kernel.vmem k) ~name:"gap" ~slots:8 ~slot_size:64
        ~producer:pdom ()
    in
    ignore (Chan.accept chan ~into:cdom);
    Chan.set_mode chan Chan.Poll;
    let msg = Bytes.make payload 'm' in
    let per_msg () =
      let clock = Machine.clock machine in
      let before = Clock.now clock in
      for _ = 1 to 16 do
        ignore (Chan.try_send chan msg);
        ignore (Chan.try_recv chan)
      done;
      (Clock.now clock - before) / 16
    in
    let same = per_msg () in
    Cpu.pin cpx ~domain:cdom.Domain.id ~cpu:1;
    let cross = per_msg () in
    let model =
      2 * Chan.lines_of_msg payload * (Machine.costs machine).Cost.cacheline
    in
    if cross - same <> model then
      failwith
        (Printf.sprintf
           "E23: cross-CPU gap %d does not match the cache-line model %d"
           (cross - same) model);
    (same, cross, model)

  (* All 8 flows dumped on CPU 0 of a 4-CPU complex: without stealing
     three CPUs idle and the makespan is serial; with stealing the idle
     CPUs pull ready flows over and split the work. *)
  let stealing_makespan steal =
    let sys = System.create ~seed:0xBEEF ~cpus:4 () in
    let k = System.kernel sys in
    let machine = Kernel.machine k in
    let smp = System.smp sys in
    let cpx = System.cpu sys in
    List.iter
      (fun f ->
        let _, _, chan = make_flow sys k f in
        ignore
          (Smp.spawn_on smp 0 ~name:(Printf.sprintf "flow%d" f)
             (flow_body machine chan msgs)))
      (List.init flows Fun.id);
    let before = List.init 4 (fun c -> Cpu.now cpx c) in
    ignore (Smp.run ~steal smp);
    let makespan =
      List.fold_left max 0 (List.mapi (fun c b -> Cpu.now cpx c - b) before)
    in
    (makespan, Smp.stats smp `Steals)

  let run () =
    header "E23  Truly parallel execution: scaling over the SMP complex"
      "per-CPU clocks and schedulers turn the simulated machine into an N-way \
       multiprocessor; partitioned flows scale near-linearly, cross-CPU \
       traffic pays the coherence fabric by the cache-line model, and idle \
       CPUs steal work";
    let base = run_flows 1 in
    let curve =
      List.map
        (fun c ->
          let mk = run_flows c in
          (c, mk, float_of_int base /. float_of_int mk))
        cpu_counts
    in
    print_table
      ~columns:
        [ ("cpus", ()); ("makespan cyc", ()); ("speedup", ());
          ("efficiency", ()) ]
      (List.map
         (fun (c, mk, s) -> [ i c; i mk; f2 s ^ "x"; f2 (s /. float_of_int c) ])
         curve);
    line "(8 pinned flows, %d messages each, %d cyc compute per message;"
      msgs grain;
    line " makespan = slowest CPU's clock; flows split round-robin)";
    List.iter
      (fun (c, _, s) ->
        if s < 0.9 *. float_of_int c then
          failwith
            (Printf.sprintf "E23: speedup %.2fx at %d cpus is below the 0.9C \
                             near-linear floor" s c))
      curve;
    line "=> the whole curve stays within 10%% of linear: partitioned flows";
    line "   share no state, so per-CPU clocks never reconcile";
    line "";
    let same, cross, model = channel_gap () in
    line "-- cross-CPU channel traffic: the cache-line transfer model --";
    print_table
      ~columns:
        [ ("endpoints", ()); ("cyc/msg", ()); ("gap", ()) ]
      [
        [ "same cpu"; i same; "0" ];
        [ "cross cpu"; i cross; i (cross - same) ];
      ];
    line "=> the gap is exactly %d cyc: %d lines (%dB msg + header) x %d \
          cyc/line, paid on send and on recv"
      model
      (Chan.lines_of_msg payload)
      payload Cost.default.Cost.cacheline;
    line "";
    let mk_off, _ = stealing_makespan false in
    let mk_on, steals = stealing_makespan true in
    line "-- work stealing: 8 flows dumped on CPU 0 of a 4-CPU complex --";
    print_table
      ~columns:[ ("stealing", ()); ("makespan cyc", ()); ("steals", ()) ]
      [
        [ "off"; i mk_off; "0" ];
        [ "on"; i mk_on; i steals ];
      ];
    if steals = 0 then failwith "E23: idle CPUs stole nothing";
    if mk_on >= mk_off then
      failwith "E23: stealing did not improve the makespan";
    line "=> idle CPUs pulled %d ready flows over (%d cyc each: two cache-line"
      steals (Cost.steal Cost.default);
    line "   transfers + one memory read) and cut the makespan %.2fx"
      (float_of_int mk_off /. float_of_int mk_on)
end

(* ------------------------------------------------------------------ *)
(* E-REPLAY: deterministic record/replay of whole runs                 *)
(* ------------------------------------------------------------------ *)

module Ereplay = struct
  let run () =
    header "E-REPLAY  Deterministic record/replay of whole runs"
      "a journalled run is a reproducible artifact: re-executing the scenario \
       from the same seed regenerates the journal and the /stats snapshot \
       byte for byte (the contract `pm_replay` and CI assert)";
    let rows =
      List.map
        (fun (name, _desc) ->
          match Replay.record name with
          | Error e -> [ name; "-"; "-"; "record failed: " ^ e ]
          | Ok r ->
            let events =
              match Journal.import r.Replay.journal with
              | Ok es -> i (List.length es)
              | Error _ -> "?"
            in
            let verdict =
              match Replay.replay r with
              | Ok () -> "byte-identical"
              | Error _ -> "DIVERGED"
            in
            assert (verdict = "byte-identical");
            [ name; events; i (String.length r.Replay.stats); verdict ])
        Replay.scenarios
    in
    print_table
      ~columns:
        [ ("scenario", ()); ("journal events", ()); ("stats bytes", ());
          ("replay", ()) ]
      rows;
    line
      "(each scenario is captured in Full mode, re-executed from the same seed,";
    line " and the journal export plus /stats snapshot compared byte-for-byte)"
end

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock suite                                           *)
(* ------------------------------------------------------------------ *)

let wall_clock_suite () =
  let open Bechamel in
  let open Toolkit in
  line "";
  line "==============================================================================";
  line "Wall-clock micro-benchmarks (Bechamel, monotonic clock, ns/op)";
  line "(steady-state operations on prebuilt systems)";
  line "==============================================================================";
  (* prebuilt fixtures so the measured closure is the steady-state
     operation, not system boot *)
  let e1 = E1.make_fixture () in
  let e2_clock, e2_ctx, e2_ns = E2.fixture () in
  ignore e2_clock;
  let e2_root = View.of_namespace e2_ns in
  let e2_path = E2.deep_path 4 in
  let e3_k, _, e3_udom, _, _, e3_proxy = E3.fixture () in
  Mmu.switch_context (Machine.mmu (Kernel.machine e3_k)) e3_udom.Domain.id;
  let e3_ctx = Kernel.ctx e3_k e3_udom in
  let e4_sys = fresh_sys () in
  let e4_k = System.kernel e4_sys in
  let e4_kdom = Kernel.kernel_domain e4_k in
  let e4_net = System.setup_networking e4_sys ~placement:System.Certified ~addr:42 () in
  let e4_ctx = Kernel.ctx e4_k e4_kdom in
  ignore
    (Invoke.call_exn e4_ctx e4_net.System.stack ~iface:"stack" ~meth:"bind_port"
       [ Value.Int 7 ]);
  let e4_packet = Bytes.to_string (E4.make_packet e4_ctx ~dst:42 256) in
  let e5_sys = fresh_sys () in
  let e5_k = System.kernel e5_sys in
  let e5_image =
    Images.image ~name:"e5wall" ~size:24_576 ~type_safe:true E5.null_construct
  in
  let e5_image, _ = Images.certify (System.authority e5_sys) ~now:0 e5_image in
  let e5_cert = Option.get e5_image.Loader.cert in
  let e6_sys = fresh_sys () in
  let e6_k = System.kernel e6_sys in
  ignore
    (Events.register_popup (Kernel.events e6_k) (Events.Irq 7)
       ~domain:(Kernel.kernel_domain e6_k) ~sched:(Kernel.sched e6_k) (fun _ -> ()));
  let e7_sys = fresh_sys () in
  let e7_k = System.kernel e7_sys in
  let e7_kdom = Kernel.kernel_domain e7_k in
  let e7_net = System.setup_networking e7_sys ~placement:System.Certified ~addr:42 () in
  let e7_target =
    let t = Interpose.packet_monitor (Kernel.api e7_k) e7_kdom ~target:e7_net.System.driver in
    Interpose.packet_monitor (Kernel.api e7_k) e7_kdom ~target:t
  in
  let e7_ctx = Kernel.ctx e7_k e7_kdom in
  let e7_frame = Value.Blob (Bytes.create 256) in
  let e8_rng = Prng.create ~seed:0xCA in
  let e8_auth = Authority.create e8_rng ~name:"ca" ~key_bits:512 in
  ignore
    (Authority.add_delegate e8_auth e8_rng ~name:"compiler"
       ~policy:Policies.trusted_compiler ~latency:1 ());
  let e8_meta = Meta.make ~type_safe:true ~name:"m" ~size:4096 () in
  let tests =
    Test.make_grouped ~name:"paramecium"
      [
        Test.make ~name:"e1_invoke_grain100"
          (Staged.stage (fun () ->
               ignore
                 (Invoke.call e1.E1.ctx e1.E1.plain ~iface:"work" ~meth:"run"
                    [ Value.Int 100 ])));
        Test.make ~name:"e2_bind_depth4"
          (Staged.stage (fun () -> ignore (View.bind e2_ctx e2_root e2_path)));
        Test.make ~name:"e3_crossdomain_call"
          (Staged.stage (fun () ->
               ignore
                 (Invoke.call e3_ctx e3_proxy ~iface:"echo" ~meth:"echo"
                    [ Value.Int 1 ])));
        Test.make ~name:"e4_packet_rx_certified"
          (Staged.stage (fun () ->
               Nic.inject (Kernel.nic e4_k) e4_packet;
               Kernel.step e4_k ~ticks:1 ();
               ignore
                 (Invoke.call_exn e4_ctx e4_net.System.stack ~iface:"stack"
                    ~meth:"recv" [ Value.Int 7 ])));
        Test.make ~name:"e5_validate_24k"
          (Staged.stage (fun () ->
               ignore
                 (Certsvc.validate (Kernel.certification e5_k) e5_cert
                    ~code:e5_image.Loader.code)));
        Test.make ~name:"e6_popup_event"
          (Staged.stage (fun () -> Machine.raise_irq (Kernel.machine e6_k) 7));
        Test.make ~name:"e7_send_2_monitors"
          (Staged.stage (fun () ->
               ignore
                 (Invoke.call_exn e7_ctx e7_target ~iface:"netdev" ~meth:"send"
                    [ e7_frame ]);
               Kernel.step e7_k ~ticks:1 ();
               ignore (Nic.take_transmitted (Kernel.nic e7_k))));
        Test.make ~name:"e8_certify_compiler"
          (Staged.stage (fun () ->
               ignore (Authority.certify e8_auth e8_meta ~code:"code" ~now:0)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> Printf.sprintf "%.0f" e
          | _ -> "n/a"
        in
        [ name; est ] :: acc)
      results []
    |> List.sort compare
  in
  print_table ~columns:[ ("benchmark", ()); ("ns/op", ()) ] rows

let () =
  let wall = Array.exists (fun a -> a = "--wall") Sys.argv in
  let only =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> a <> "--wall")
  in
  let experiments =
    [ ("e1", E1.run); ("e2", E2.run); ("e3", E3.run); ("e4", E4.run);
      ("e5", E5.run); ("e6", E6.run); ("e7", E7.run); ("e8", E8.run);
      ("e9", E9.run); ("e10", E10.run); ("e11", E11.run); ("e12", E12.run);
      ("e13", E13.run); ("e14", E14.run); ("e15", E15.run); ("e16", E16.run);
      ("obs", Eobs.run); ("e18", E18.run); ("e19", E19.run);
      ("e20", E20.run); ("e21", E21.run); ("e22", E22.run); ("e23", E23.run);
      ("replay", Ereplay.run) ]
  in
  line "Paramecium reproduction — experiment suite";
  line "(simulated cycles, deterministic; cost model: SPARC-era defaults)";
  List.iter
    (fun (name, run) -> if only = [] || List.mem name only then run ())
    experiments;
  if wall then wall_clock_suite ()

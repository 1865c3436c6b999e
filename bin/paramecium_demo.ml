(* Command-line driver: boot configured Paramecium systems and poke at
   them — namespace listing, packet workloads with cycle accounting, and
   certification dry-runs.

   dune exec bin/paramecium_demo.exe -- --help *)

open Paramecium
open Cmdliner

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* --- shared options ---------------------------------------------------- *)

let seed_t =
  Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let cpus_t =
  Arg.(
    value & opt int 1
    & info [ "cpus" ] ~docv:"N"
        ~doc:
          "Simulated CPUs (default $(b,1)), each with its own clock and \
           scheduler.")

let create_system ~seed ~cpus = System.create ~seed ~cpus ()

let placement_t =
  let placement_conv =
    Arg.enum [ ("certified", `Certified); ("sandboxed", `Sandboxed); ("user", `User) ]
  in
  Arg.(
    value
    & opt placement_conv `Certified
    & info [ "placement" ] ~docv:"PLACEMENT"
        ~doc:"Protocol-stack placement: $(b,certified), $(b,sandboxed) or $(b,user).")

let networking sys placement =
  match placement with
  | `Certified -> System.setup_networking sys ~placement:System.Certified ~addr:42 ()
  | `Sandboxed -> System.setup_networking sys ~placement:System.Sandboxed ~addr:42 ()
  | `User ->
    let dom = System.new_domain sys "netuser" in
    System.setup_networking sys ~placement:(System.User dom) ~addr:42 ()

(* --- info --------------------------------------------------------------- *)

let info_cmd =
  let run seed cpus =
    let sys = create_system ~seed ~cpus in
    let k = System.kernel sys in
    say "Paramecium system";
    say "  cpus: %d" (System.cpus sys);
    say "  authority: %s" (Principal.id (Authority.ca (System.authority sys)));
    say "  delegates:";
    List.iter
      (fun (d : Authority.delegate) ->
        say "    %-18s latency %d cycles" d.Authority.principal.Principal.name
          d.Authority.latency)
      (Authority.delegates (System.authority sys));
    say "  devices:";
    List.iter
      (fun (name, base, regs) -> say "    %-10s io 0x%08x, %d registers" name base regs)
      (Machine.devices (Kernel.machine k));
    say "  domains:";
    List.iter
      (fun d -> say "    %s" (Format.asprintf "%a" Domain.pp d))
      (Kernel.domains k);
    say "  physical memory: %d/%d frames free"
      (Physmem.free_frames (Machine.phys (Kernel.machine k)))
      (Physmem.total_frames (Machine.phys (Kernel.machine k)))
  in
  Cmd.v (Cmd.info "info" ~doc:"Boot a system and describe it.")
    Term.(const run $ seed_t $ cpus_t)

(* --- ls ------------------------------------------------------------------- *)

let ls_cmd =
  let run seed cpus placement =
    let sys = create_system ~seed ~cpus in
    ignore (networking sys placement);
    let k = System.kernel sys in
    let ns = Directory.namespace (Kernel.directory k) in
    Namespace.iter ns (fun path handle ->
        let cls =
          match Directory.resolve_handle (Kernel.directory k) handle with
          | Some inst ->
            Printf.sprintf "%s  [%s]" inst.Instance.class_name
              (String.concat ", " (Instance.interface_names inst))
          | None -> "(dangling)"
        in
        say "%-28s #%-3d %s" (Path.to_string path) handle cls)
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List the instance name space of a booted system.")
    Term.(const run $ seed_t $ cpus_t $ placement_t)

(* --- packets ---------------------------------------------------------------- *)

let packets_cmd =
  let count_t =
    Arg.(value & opt int 20 & info [ "n"; "count" ] ~docv:"N" ~doc:"Packets to push.")
  in
  let size_t =
    Arg.(value & opt int 256 & info [ "size" ] ~docv:"BYTES" ~doc:"Payload size.")
  in
  let trace_t =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Enable kernel-wide tracing, interpose a trace agent on \
             $(b,/shared/network), and print the span tree at exit.")
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Enable per-domain accounting and print the $(b,/stats) snapshot \
             plus the flight-recorder dump at exit (read through \
             $(b,/stats/kernel) like any client would).")
  in
  let net_chan_t =
    Arg.(
      value & flag
      & info [ "net-chan" ]
          ~doc:
            "Carry the workload over the channel-backed data path (Pm_net): \
             deliveries land on a per-port ring instead of the mailbox, and \
             each one is echoed back through the shared MPSC transmit group.")
  in
  let run seed cpus placement n size trace stats net_chan =
    let sys = create_system ~seed ~cpus in
    let k = System.kernel sys in
    let net = networking sys placement in
    let kdom = Kernel.kernel_domain k in
    let consume = net.System.stack_domain in
    let tsvc = Kernel.tracesvc k in
    if stats then Obs.enable (Clock.obs (Kernel.clock k));
    if trace then begin
      Obs.enable (Clock.obs (Kernel.clock k));
      match Tracesvc.interpose tsvc "/shared/network" with
      | Ok _ -> ()
      | Error e -> say "trace interposer: %s" e
    end;
    let ring =
      if net_chan then begin
        let nsc, _svc = System.channel_net sys net () in
        let app = System.new_domain sys "app" in
        match Netstack_chan.bind nsc ~port:7 ~owner:app ~mode:Chan.Poll () with
        | Ok chan -> Some (nsc, app, chan, Netstack_chan.attach_tx nsc ~producer:app)
        | Error e -> failwith ("net-chan bind: " ^ e)
      end
      else begin
        ignore
          (Invoke.call_exn (Kernel.ctx k consume) net.System.stack ~iface:"stack"
             ~meth:"bind_port" [ Value.Int 7 ]);
        None
      end
    in
    let ctx = Kernel.ctx k kdom in
    let payload = String.make size 'p' in
    let packet =
      Bytes.to_string
        (Wire.frame ctx ~src:13 ~dst:42 ~ttl:8 ~proto:Stack.proto_transport ~sport:9 ~dport:7
           (Bytes.of_string payload))
    in
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    for _ = 1 to n do
      Nic.inject (Kernel.nic k) packet;
      Kernel.step k ~ticks:1 ()
    done;
    Kernel.step k ~ticks:4 ();
    let delivered, echoed =
      match ring with
      | None ->
        let p =
          match
            Invoke.call_exn (Kernel.ctx k consume) net.System.stack ~iface:"stack"
              ~meth:"pending" [ Value.Int 7 ]
          with
          | Value.Int p -> p
          | _ -> 0
        in
        (p, None)
      | Some (nsc, app, chan, tx) ->
        (* server loop: drain the port ring, echo every request back
           through the MPSC transmit group *)
        let msgs = Chan.recv_batch ~account:false chan () in
        let mmu = Machine.mmu (Kernel.machine k) in
        Mmu.switch_context mmu app.Domain.id;
        let uctx = Kernel.ctx k app in
        let sent =
          List.fold_left
            (fun acc m ->
              match Netwire.Delivery.parse uctx m with
              | Ok { Netwire.Delivery.src; sport; payload } ->
                if Netstack_chan.submit tx uctx ~dst:src ~sport:7 ~dport:sport payload
                then acc + 1
                else acc
              | Error _ -> acc)
            0 msgs
        in
        Mmu.switch_context mmu kdom.Domain.id;
        ignore (Netstack_chan.drain_tx nsc);
        Kernel.step k ~ticks:(sent + 4) ();
        let on_wire = List.length (Nic.take_transmitted (Kernel.nic k)) in
        (List.length msgs, Some (sent, on_wire))
    in
    say "%d/%d packets of %dB delivered; %d cycles (%.1f cycles/packet)" delivered n
      size
      (Clock.now clock - before)
      (float_of_int (Clock.now clock - before) /. float_of_int n);
    (match echoed with
    | Some (sent, on_wire) ->
      say "net-chan: %d deliveries drained from /net/7/rx; %d echoes submitted, %d frames on the wire"
        delivered sent on_wire
    | None -> ());
    say "counters:";
    List.iter
      (fun (name, v) -> say "  %-24s %d" name v)
      (Clock.counters clock);
    if trace then begin
      (* a couple of sends through the agent: re-binding /shared/network
         resolves to the interposer now occupying the name *)
      let agent = Kernel.bind k kdom "/shared/network" in
      for _ = 1 to 2 do
        ignore
          (Invoke.call_exn ctx agent ~iface:"netdev" ~meth:"send"
             [ Value.Blob (Bytes.create 64) ])
      done;
      Kernel.step k ~ticks:1 ();
      let obs = Clock.obs clock in
      let j = Obs.journal obs in
      let spans = Journal.spans j in
      say "";
      say "trace: %d spans recorded in the journal" (Journal.count j Journal.Span_exit);
      say "span tree (the %d completed spans in the journal tail):" (List.length spans);
      say "%s" (Journal.spans_to_text spans);
      say "";
      say "metrics:";
      print_string (Metrics.to_text (Obs.metrics obs));
      (match Tracesvc.uninterpose tsvc "/shared/network" with
      | Ok () -> say "trace agent removed; /shared/network restored"
      | Error e -> say "uninterpose: %s" e);
      Obs.disable obs
    end;
    if stats then begin
      (* read the accounting the way any client would: bind /stats/kernel
         in the name space and invoke its exported methods *)
      let stats_obj = Kernel.bind k kdom "/stats/kernel" in
      let call meth =
        match
          Invoke.call_exn ctx stats_obj ~iface:"stats" ~meth []
        with
        | Value.Str s -> s
        | _ -> ""
      in
      say "";
      say "%s" (call "snapshot");
      say "";
      say "flight recorder:";
      (match
         Invoke.call_exn ctx stats_obj ~iface:"stats" ~meth:"flight"
           [ Value.Int 0 ]
       with
      | Value.Str s -> say "%s" s
      | _ -> ());
      Obs.disable (Clock.obs (Kernel.clock k))
    end
  in
  Cmd.v
    (Cmd.info "packets"
       ~doc:"Push a packet workload through a placement and report cycle counters.")
    Term.(
      const run $ seed_t $ cpus_t $ placement_t $ count_t $ size_t $ trace_t
      $ stats_t $ net_chan_t)

(* --- certify ---------------------------------------------------------------- *)

let certify_cmd =
  let name_t =
    Arg.(value & opt string "mycomponent" & info [ "name" ] ~docv:"NAME" ~doc:"Component name.")
  in
  let size_t =
    Arg.(value & opt int 8192 & info [ "size" ] ~docv:"BYTES" ~doc:"Code size.")
  in
  let author_t =
    Arg.(value & opt string "third-party" & info [ "author" ] ~docv:"AUTHOR" ~doc:"Author.")
  in
  let type_safe_t =
    Arg.(value & flag & info [ "type-safe" ] ~doc:"Compiled by the trusted compiler.")
  in
  let annotated_t =
    Arg.(value & flag & info [ "annotated" ] ~doc:"Ships with proof annotations.")
  in
  let run seed cpus name size author type_safe annotated =
    let sys = create_system ~seed ~cpus in
    let auth = System.authority sys in
    let meta =
      Meta.make ~author ~type_safe ~proof_annotated:annotated ~name ~size ()
    in
    let code = Codegen.synthesize ~name ~size in
    say "certifying %s" (Format.asprintf "%a" Meta.pp meta);
    let outcome = Authority.certify auth meta ~code ~now:0 in
    List.iter
      (fun (delegate, verdict) ->
        say "  %-18s %s" delegate
          (match verdict with
          | Authority.Accept -> "ACCEPT"
          | Authority.Reject r -> "reject: " ^ r
          | Authority.Cannot_decide -> "cannot decide"))
      outcome.Authority.trail;
    (match outcome.Authority.certificate with
    | Some cert ->
      say "certificate issued by %s at %d (off-line latency: %d cycles)"
        cert.Certificate.signer.Principal.name cert.Certificate.issued_at
        outcome.Authority.elapsed;
      (* show that the kernel would accept it *)
      let k = System.kernel sys in
      (match Certsvc.validate (Kernel.certification k) cert ~code with
      | Validator.Valid { chain_length } ->
        say "kernel validation: OK (speaks-for chain length %d)" chain_length
      | Validator.Invalid f ->
        say "kernel validation: REFUSED (%s)" (Validator.failure_to_string f))
    | None -> say "no delegate certified the component; kernel admission only via sandbox")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Run a component description through the certification delegate chain.")
    Term.(const run $ seed_t $ cpus_t $ name_t $ size_t $ author_t $ type_safe_t $ annotated_t)


(* --- filter ------------------------------------------------------------------ *)

let filter_cmd =
  let expr_t =
    Arg.(
      value
      & opt string "byte[19] == 7 && byte[18] == 0"
      & info [ "expr" ] ~docv:"EXPR" ~doc:"Filter expression.")
  in
  let sandbox_t =
    Arg.(value & flag & info [ "sandbox" ] ~doc:"Show the SFI-rewritten program too.")
  in
  let run expr sandbox =
    match Filterc.compile_string expr with
    | Error e ->
      say "compile error: %s" e;
      exit 1
    | Ok program ->
      say "filter: %s" expr;
      say "object code (%d instructions, %d bytes):" (Vm.instr_count program)
        (String.length (Vm.encode program));
      Format.printf "%a%!" Vm.pp_program program;
      if sandbox then begin
        match Sfi_rewrite.rewrite program ~window_size:2048 with
        | Error e -> say "sfi rewrite error: %s" e
        | Ok sb ->
          say "";
          say "SFI-rewritten for a 2048-byte window (%d instructions):"
            (Vm.instr_count sb);
          Format.printf "%a%!" Vm.pp_program sb
      end;
      (* run it against a sample packet built by the stack's own wire code *)
      let clock = Clock.create () in
      let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
      let frame =
        Wire.frame ctx ~src:13 ~dst:42 ~ttl:8 ~proto:Stack.proto_transport ~sport:9 ~dport:7
          (Bytes.of_string "sample")
      in
      Clock.reset clock;
      (match Vm.run ctx ~mem:(Vm.mem_of_bytes frame) program with
      | Vm.Returned v ->
        say "";
        say "on a sample port-7 frame: returned %d (%s) in %d cycles" v
          (if v <> 0 then "accept" else "drop")
          (Clock.now clock)
      | Vm.Wild_access o -> say "wild access at %d" o
      | Vm.Vm_fault m -> say "vm fault: %s" m)
  in
  Cmd.v
    (Cmd.info "filter"
       ~doc:"Compile a packet-filter expression and show/run its object code.")
    Term.(const run $ expr_t $ sandbox_t)

(* --- kv: the whole-system workload ------------------------------------- *)

let kv_cmd =
  let count_t =
    Arg.(
      value & opt int 8
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Keys to put before reading back.")
  in
  let store_placement_t =
    let store_conv =
      Arg.enum
        [ ("certified", `Certified); ("verified", `Verified); ("user", `User) ]
    in
    Arg.(
      value & opt store_conv `Certified
      & info [ "store-placement" ] ~docv:"PLACEMENT"
          ~doc:
            "Storage-stack placement: $(b,certified), $(b,verified) or \
             $(b,user).")
  in
  let run seed cpus n placement =
    let sys = create_system ~seed ~cpus in
    let k = System.kernel sys in
    let placement =
      match placement with
      | `Certified -> System.Certified
      | `Verified -> System.Verified
      | `User -> System.User (System.new_domain sys "storeuser")
    in
    let kv, client = System.setup_kv sys ~placement ~cache_capacity:16 in
    let kdom = Kernel.kernel_domain k in
    (* one request/response round trip over the loopback rings: submit
       from the client domain, pump the kernel, drain the reply ring *)
    let request ~op ~key value =
      ignore (Kv.send client ~op ~key value);
      Kernel.step k ~ticks:4 ();
      match Kv.replies client with
      | [ Ok r ] ->
        if r.Storewire.Kvmsg.status = Storewire.Kvmsg.status_ok then
          Ok (Some (Bytes.to_string r.Storewire.Kvmsg.payload))
        else Ok None
      | [ Error e ] -> Error e
      | [] -> Error "no reply"
      | _ -> Error "multiple replies"
    in
    let show = function
      | Error e -> Printf.sprintf "error (%s)" e
      | Ok None -> "not-found"
      | Ok (Some "") -> "ok"
      | Ok (Some v) -> Printf.sprintf "ok %S" v
    in
    say "kv over /net port 70, backed by /store/log0 -> cache0 -> part0 -> blkdrv";
    for i = 0 to n - 1 do
      let key = Printf.sprintf "key-%02d" i in
      let r = request ~op:Storewire.kv_put ~key (Printf.sprintf "value-%02d" i) in
      say "  put %s -> %s" key (show r)
    done;
    say "  get key-01 -> %s" (show (request ~op:Storewire.kv_get ~key:"key-01" ""));
    say "  del key-01 -> %s" (show (request ~op:Storewire.kv_del ~key:"key-01" ""));
    say "  get key-01 -> %s" (show (request ~op:Storewire.kv_get ~key:"key-01" ""));
    (match
       Invoke.call (Kernel.ctx k kdom) kv ~iface:"kv" ~meth:"flush" []
     with
    | Ok (Value.Int blocks) -> say "  flush -> %d block(s) written back" blocks
    | Ok _ | Error _ -> say "  flush failed");
    Kernel.step k ~ticks:2 ();
    let counters = (Clock.snapshot (Kernel.clock k)).Clock.counts in
    let c name = try List.assoc name counters with Not_found -> 0 in
    say "device: %d DMA issue(s), %d completion(s), %d cache flush(es)"
      (c "blk_issue") (c "blk_complete") (c "cache_flush");
    say "cycles: %d" (Clock.now (Kernel.clock k))
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:
         "Run the whole-system KV workload: a client domain speaks to a \
          key-value server over the channel-backed network path, and the \
          server persists through the /store stack (append-only log over a \
          write-back cache over a partition over the DMA block device).")
    Term.(const run $ seed_t $ cpus_t $ count_t $ store_placement_t)

let () =
  let doc = "Paramecium extensible-kernel reproduction demos" in
  let main = Cmd.group (Cmd.info "paramecium_demo" ~doc) [ info_cmd; ls_cmd; packets_cmd; certify_cmd; filter_cmd; kv_cmd ] in
  exit (Cmd.eval main)

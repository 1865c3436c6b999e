(* Deterministic record/replay over the journal.

   The simulated machine is deterministic: boot with the same seed, run
   the same scenario, and every trap, crossing and structural mutation
   lands on the same virtual cycle. Recording a run is therefore just
   flipping the clock journal to Full mode before boot and exporting it
   afterwards; replaying is running the scenario again and comparing the
   two histories (and the /stats snapshots read through the object path)
   byte for byte. Any divergence — nondeterminism creeping into the
   kernel, or a tampered recording — is reported with the first
   differing event. *)

module Kernel = Pm_nucleus.Kernel
module Domain = Pm_nucleus.Domain
module Vmem = Pm_nucleus.Vmem
module Clock = Pm_machine.Clock
module Nic = Pm_machine.Nic
module Invoke = Pm_obj.Invoke
module Value = Pm_obj.Value
module Wire = Pm_components.Wire
module Stack = Pm_components.Stack
module Images = Pm_components.Images
module Chan = Pm_chan.Chan
module Cpu = Pm_machine.Cpu
module Scheduler = Pm_threads.Scheduler
module Smp = Pm_threads.Smp
module Journal = Pm_journal.Journal
module Trace = Pm_journal.Trace

type recording = { scenario : string; journal : string; stats : string }

(* ------------------------------------------------------------------ *)
(* Scenarios: small self-contained workloads, each deterministic from   *)
(* the fixed boot seed.                                                 *)
(* ------------------------------------------------------------------ *)

let run_packets sys =
  let k = System.kernel sys in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let consume = net.System.stack_domain in
  ignore
    (Invoke.call_exn (Kernel.ctx k consume) net.System.stack ~iface:"stack"
       ~meth:"bind_port" [ Value.Int 7 ]);
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let payload = String.make 64 'p' in
  let packet =
    Bytes.to_string
      (Wire.frame ctx ~src:13 ~dst:42 ~ttl:8 ~proto:Stack.proto_transport ~sport:9 ~dport:7
         (Bytes.of_string payload))
  in
  for _ = 1 to 8 do
    Nic.inject (Kernel.nic k) packet;
    Kernel.step k ~ticks:1 ()
  done;
  Kernel.step k ~ticks:4 ()

let run_compose sys =
  let k = System.kernel sys in
  (* a committed transaction: place an allocator and alias it *)
  (match
     System.transact sys "wire-alloc" (fun txn ->
         match
           System.txn_install txn
             (Images.image ~name:"alloc" ~size:8_192 ~author:"kernel-team"
                (Images.allocator_construct ~heap_pages:4))
             ~placement:System.Certified ~at:"/services/alloc"
         with
         | Error _ as e -> e
         | Ok inst -> System.txn_register txn "/shared/alloc" inst)
   with
  | Ok () -> ()
  | Error e -> failwith ("compose scenario: committed txn failed: " ^ e));
  (* an aborted transaction: the rollback itself is part of the history *)
  (match
     System.transact sys "doomed" (fun txn ->
         match
           System.txn_install txn
             (Images.image ~name:"alloc2" ~size:8_192 ~author:"kernel-team"
                (Images.allocator_construct ~heap_pages:2))
             ~placement:System.Certified ~at:"/services/alloc2"
         with
         | Error _ as e -> e
         | Ok _ -> Error "wiring failed downstream")
   with
  | Ok () -> failwith "compose scenario: doomed txn committed"
  | Error _ -> ());
  (* page sharing with clean hygiene: share, unshare, tear down *)
  let kdom = Kernel.kernel_domain k in
  let udom = System.new_domain sys "guest" in
  let vmem = Kernel.vmem k in
  let vaddr = Vmem.alloc_pages vmem kdom ~count:2 ~sharing:Vmem.Shared in
  let shared =
    Vmem.map_shared vmem ~from_dom:kdom ~vaddr ~count:2 ~into:udom
      ~prot:Pm_machine.Mmu.Read_only
  in
  Vmem.free_pages vmem udom ~vaddr:shared ~count:2;
  Vmem.free_pages vmem kdom ~vaddr ~count:2;
  Kernel.destroy_domain k udom

let run_crash sys =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let sched = Kernel.sched k in
  ignore
    (Scheduler.spawn sched ~name:"doomed-worker" ~domain:kdom.Domain.id
       (fun () -> failwith "deliberate crash"));
  ignore
    (Scheduler.spawn sched ~name:"survivor" ~domain:kdom.Domain.id (fun () ->
         Scheduler.yield ()));
  ignore (Scheduler.run sched ())

let run_deadlock sys =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let udom = System.new_domain sys "peer" in
  let chan_ab =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~name:"a-to-b" ~mode:Chan.Poll
      ~producer:kdom ()
  in
  ignore (Chan.accept chan_ab ~into:udom);
  let chan_ba =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~name:"b-to-a" ~mode:Chan.Poll
      ~producer:udom ()
  in
  ignore (Chan.accept chan_ba ~into:kdom);
  let sched = Kernel.sched k in
  ignore
    (Scheduler.spawn sched ~name:"a" ~domain:kdom.Domain.id (fun () ->
         ignore (Chan.recv chan_ba)));
  ignore
    (Scheduler.spawn sched ~name:"b" ~domain:udom.Domain.id (fun () ->
         ignore (Chan.recv chan_ab)));
  ignore (Scheduler.run sched ())

(* one KV request from the client as a traced causal unit: the rid
   minted here rides the wire through net, kv and block layers until
   req_end closes it; req_begin/req_end record nothing (and mint
   nothing) with tracing off. The reply stays on the client's ring,
   undrained. *)
let kv_request sys client ~op ~key value =
  let k = System.kernel sys in
  let cdom = client.Pm_store.Kv.dom in
  let clock = System.clock sys in
  let j = Pm_obs.Obs.journal (Clock.obs clock) in
  let label =
    let op_name =
      if op = Pm_store.Storewire.kv_put then "put"
      else if op = Pm_store.Storewire.kv_get then "get"
      else "del"
    in
    op_name ^ " " ^ key
  in
  let rid =
    Journal.req_begin j ~domain:cdom.Domain.id ~at:(Clock.now clock) ~detail:label
  in
  ignore (Pm_store.Kv.send client ~op ~key value);
  Kernel.step k ~ticks:4 ();
  Journal.req_end j ~domain:cdom.Domain.id ~at:(Clock.now clock) rid

(* flush the store as one traced unit, then let the machine settle *)
let kv_flush sys kv =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let clock = System.clock sys in
  let j = Pm_obs.Obs.journal (Clock.obs clock) in
  let frid =
    Journal.req_begin j ~domain:kdom.Domain.id ~at:(Clock.now clock)
      ~detail:"flush kv0"
  in
  ignore
    (Invoke.call_exn (Kernel.ctx k kdom) kv ~iface:"kv" ~meth:"flush" []);
  Journal.req_end j ~domain:kdom.Domain.id ~at:(Clock.now clock) frid;
  Kernel.step k ~ticks:4 ()

(* the whole-system workload: KV requests over the loopback NIC through
   the channel-backed net path, backed by the partition→cache→log stack
   over the DMA block device — block issue/complete and cache-flush
   events land in the journal alongside the net path's *)
let run_kv sys =
  let kv, client =
    System.setup_kv sys ~placement:System.Certified ~cache_capacity:8
  in
  let request = kv_request sys client in
  for i = 1 to 6 do
    request ~op:Pm_store.Storewire.kv_put
      ~key:(Printf.sprintf "key-%d" (i mod 3))
      (Printf.sprintf "val-%d" i)
  done;
  request ~op:Pm_store.Storewire.kv_get ~key:"key-1" "";
  request ~op:Pm_store.Storewire.kv_del ~key:"key-2" "";
  request ~op:Pm_store.Storewire.kv_get ~key:"key-2" "";
  kv_flush sys kv

(* the spill path the kv scenario's 8-line cache never reaches: values
   that fill half a block each (a 254-byte record and its length word),
   so eight keys take four blocks against a 2-line cache. The puts
   evict dirty lines and write them back, the gets miss and read the
   media, and the closing flush writes back what is still dirty before
   the superblock. *)
let run_kv_spill sys =
  let kv, client =
    System.setup_kv sys ~placement:System.Certified ~cache_capacity:2
  in
  let request = kv_request sys client in
  let key i = Printf.sprintf "key-%d" i in
  let value i = String.make 246 (Char.chr (Char.code 'a' + i)) in
  for i = 0 to 7 do
    request ~op:Pm_store.Storewire.kv_put ~key:(key i) (value i)
  done;
  for i = 0 to 7 do
    request ~op:Pm_store.Storewire.kv_get ~key:(key i) ""
  done;
  request ~op:Pm_store.Storewire.kv_put ~key:(key 0) (value 8);
  request ~op:Pm_store.Storewire.kv_get ~key:(key 7) "";
  kv_flush sys kv

(* two CPUs: KV puts over loopback net and the block-store stack, each
   followed by a ring of a doorbell channel whose consumer domain is
   pinned to CPU 1, so the history carries CPU 1's stamps and the
   doorbells cross CPUs *)
let run_smp sys =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let _kv, client = System.setup_kv sys ~placement:System.Certified ~cache_capacity:8 in
  let far = System.new_domain sys "far" in
  let bell =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~name:"smp.bell" ~slots:4 ~slot_size:16
      ~producer:kdom ()
  in
  ignore (Chan.accept bell ~into:far);
  Cpu.pin (System.cpu sys) ~domain:far.Domain.id ~cpu:1;
  ignore
    (Chan.on_doorbell bell ~events:(Kernel.events k) ~sched:(Smp.sched (System.smp sys) 1)
       (fun () -> ignore (Chan.recv_batch bell ())));
  for i = 1 to 6 do
    ignore
      (Pm_store.Kv.send client ~op:Pm_store.Storewire.kv_put
         ~key:(Printf.sprintf "key-%d" (i mod 3))
         (Printf.sprintf "val-%d" i));
    ignore (Chan.try_send bell (Bytes.of_string "ping"));
    Kernel.step k ~ticks:4 ()
  done

type scenario = { name : string; about : string; cpus : int; run : System.t -> unit }

let table =
  [
    { name = "packets"; about = "certified network path: inject 8 frames, step the machine";
      cpus = 1; run = run_packets };
    { name = "compose"; about = "a committed and an aborted transaction, page sharing, teardown";
      cpus = 1; run = run_compose };
    { name = "crash"; about = "a thread dies on an uncaught exception beside a survivor";
      cpus = 1; run = run_crash };
    { name = "deadlock"; about = "crossed channel receives leave a wait cycle behind";
      cpus = 1; run = run_deadlock };
    { name = "kv"; about = "KV workload over loopback net, backed by the block-store stack";
      cpus = 1; run = run_kv };
    { name = "smp"; about = "2 CPUs: KV puts, each with a doorbell to a consumer on CPU 1";
      cpus = 2; run = run_smp };
    { name = "kv-spill"; about = "KV over a 2-line cache: evictions write back, gets read the media";
      cpus = 1; run = run_kv_spill };
  ]

let scenarios = List.map (fun s -> (s.name, s.about)) table

(* ------------------------------------------------------------------ *)

let journal_of sys = Pm_obs.Obs.journal (Clock.obs (System.clock sys))

(* the snapshot is read through /stats/kernel like any client would, so
   replay equality also covers the object-invocation path *)
let stats_snapshot sys =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let ksvc = Kernel.bind k kdom "/stats/kernel" in
  match
    Invoke.call (Kernel.ctx k kdom) ksvc ~iface:"stats" ~meth:"snapshot" []
  with
  | Ok (Value.Str s) -> s
  | Ok _ | Error _ -> failwith "Replay.stats_snapshot: /stats/kernel failed"

(* Run one scenario under a Full-mode journal. The default mode is
   flipped around boot so even boot-time structural events are captured;
   the export must therefore report itself complete. *)
let capture name =
  match List.find_opt (fun s -> String.equal s.name name) table with
  | None -> Error (Printf.sprintf "unknown scenario %S" name)
  | Some s ->
    Journal.set_default_mode Journal.Full;
    (* request ids restart from 1 each capture, so a recording and its
       self-check replay mint identical rids *)
    Trace.reset ();
    Fun.protect
      ~finally:(fun () -> Journal.set_default_mode Journal.Tail)
      (fun () ->
        let sys = System.create ~cpus:s.cpus () in
        s.run sys;
        (* the journal export first: reading /stats must not disturb it,
           and taking it afterwards would put the snapshot's own
           crossings into the history *)
        let journal = Journal.export (journal_of sys) in
        let stats = stats_snapshot sys in
        Ok { scenario = name; journal; stats })

let record name = capture name

let diagnose ~expected ~got =
  match (Journal.import expected, Journal.import got) with
  | Ok exp_events, Ok got_events ->
    (match Journal.first_divergence ~expected:exp_events ~got:got_events with
    | Some d -> Journal.divergence_to_string d
    | None -> "journals re-render differently but hold the same events")
  | Error e, _ | _, Error e -> "recording unreadable: " ^ e

(* A traced recording carries rid-stamped events; replaying it must
   re-run with tracing on or every stamped line would diverge. Detected
   from the export itself so callers need no side channel. *)
let traced_recording r =
  let s = r.journal and needle = " rid=" in
  let nlen = String.length needle in
  let rec search i =
    if i + nlen > String.length s then false
    else if String.sub s i nlen = needle then true
    else search (i + 1)
  in
  search 0

(* re-capture with the tracing state the recording itself was made under *)
let recapture r =
  let was = Trace.enabled () in
  Trace.set_enabled (traced_recording r);
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled was)
    (fun () -> capture r.scenario)

let replay r =
  match recapture r with
  | Error _ as e -> e
  | Ok fresh ->
    if not (String.equal fresh.journal r.journal) then
      Error ("journal diverged: " ^ diagnose ~expected:r.journal ~got:fresh.journal)
    else if not (String.equal fresh.stats r.stats) then
      Error "stats snapshot diverged"
    else Ok ()

(* ------------------------------------------------------------------ *)
(* Bisecting a divergent recording                                      *)
(* ------------------------------------------------------------------ *)

(* Narrow a diverging recording to the first bad event the way a
   revision bisect narrows commits — but on the virtual-cycle axis.
   The fresh re-run is ground truth (the machine is deterministic), the
   recording under test is suspect. Each probe asks "do the histories
   still agree restricted to events at or before the midpoint cycle?"
   and halves the window until it pins the first cycle whose prefix
   disagrees; the report names the window walked, the probe count, and
   the first bad event, flagged structural mutation vs execution event. *)
let bisect r =
  match recapture r with
  | Error _ as e -> e
  | Ok fresh ->
    if String.equal fresh.journal r.journal then
      Ok "bisect: recording matches a fresh run; nothing to narrow"
    else (
      match (Journal.import fresh.journal, Journal.import r.journal) with
      | Error e, _ | _, Error e -> Error ("recording unreadable: " ^ e)
      | Ok good, Ok bad ->
        let prefix evs mid =
          List.filter (fun e -> e.Journal.at <= mid) evs
        in
        let diverges mid =
          Journal.first_divergence ~expected:(prefix good mid)
            ~got:(prefix bad mid)
          <> None
        in
        let last_at =
          List.fold_left (fun a e -> max a e.Journal.at) 0
        in
        let hi0 = max (last_at good) (last_at bad) in
        if not (diverges hi0) then
          Ok
            "bisect: histories hold the same events; only the rendering \
             differs"
        else begin
          (* invariant: prefix at lo agrees, prefix at hi diverges;
             lo starts at -1 (the empty prefix always agrees) *)
          let probes = ref 0 in
          let rec narrow lo hi =
            if hi - lo <= 1 then (lo, hi)
            else begin
              let mid = lo + ((hi - lo) / 2) in
              incr probes;
              if diverges mid then narrow lo mid else narrow mid hi
            end
          in
          let lo, hi = narrow (-1) hi0 in
          match
            Journal.first_divergence ~expected:(prefix good hi)
              ~got:(prefix bad hi)
          with
          | None -> Error "bisect: divergence vanished while narrowing"
          | Some d ->
            let witness =
              match (d.Journal.got, d.Journal.expected) with
              | Some e, _ | None, Some e -> Some e
              | None, None -> None
            in
            let flavor =
              match witness with
              | Some e when not (Journal.is_execution e.Journal.kind) ->
                "first bad structural mutation"
              | Some _ -> "first bad execution event"
              | None -> "divergence"
            in
            Ok
              (Printf.sprintf
                 "bisect: clean through cycle %d, diverges at cycle %d \
                  (%d probes)\n%s: %s"
                 lo hi !probes flavor
                 (Journal.divergence_to_string d))
        end)

(* ------------------------------------------------------------------ *)
(* On-disk format                                                       *)
(* ------------------------------------------------------------------ *)

let journal_sep = "== journal =="
let stats_sep = "== stats =="

let recording_to_string r =
  Printf.sprintf "pm-replay-v1 scenario=%s\n%s\n%s\n%s\n%s" r.scenario
    journal_sep r.journal stats_sep r.stats

let recording_of_string s =
  let header_end =
    match String.index_opt s '\n' with
    | Some i -> i
    | None -> String.length s
  in
  let header = String.sub s 0 header_end in
  let prefix = "pm-replay-v1 scenario=" in
  if not (String.length header > String.length prefix
          && String.sub header 0 (String.length prefix) = prefix)
  then Error "not a pm-replay-v1 recording"
  else begin
    let scenario =
      String.sub header (String.length prefix)
        (String.length header - String.length prefix)
    in
    let find_sep sep from =
      let needle = sep ^ "\n" in
      let nlen = String.length needle in
      let rec search i =
        if i + nlen > String.length s then None
        else if String.sub s i nlen = needle
                && (i = 0 || s.[i - 1] = '\n') then Some i
        else search (i + 1)
      in
      search from
    in
    match find_sep journal_sep header_end with
    | None -> Error "recording has no journal section"
    | Some j ->
      let jstart = j + String.length journal_sep + 1 in
      (match find_sep stats_sep jstart with
      | None -> Error "recording has no stats section"
      | Some st when st <= jstart -> Error "recording has an empty journal section"
      | Some st ->
        (* the newline that terminates the journal belongs to the framing *)
        let journal = String.sub s jstart (st - jstart - 1) in
        let sstart = st + String.length stats_sep + 1 in
        let stats = String.sub s sstart (String.length s - sstart) in
        Ok { scenario; journal; stats })
  end

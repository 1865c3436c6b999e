(* Two-clock benchmark for the Paramecium reproduction.

   One process, one thread. Every workload is a closed loop: one client,
   one outstanding request, driven synchronously through the public
   facade ([Paramecium]) and checked against a model. Each op is read on
   two clocks: the simulated machine's cycle clock and the host's
   monotonic clock.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 the last line of stdout is a JSON object carrying the
   end-to-end metrics. With --trace 1 the same measured loop runs, then
   a determinism re-run, a traced run, a store probe and primitive
   microbenchmarks; the JSON carries the per-layer metrics instead.
   README.md maps every metric to its module and to the end-to-end
   metric it should move. The cost model has no hardware reference, so
   no simulated number here is an error figure against real hardware. *)

open Paramecium

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* samples and order statistics                                        *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make cap 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort compare b;
    b
end

(* nearest-rank percentile: the smallest sample with at least a [p]
   share of the samples at or below it *)
let rank n p = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))
let pct sorted p = if Array.length sorted = 0 then 0 else sorted.(rank (Array.length sorted) p)
let per n x = if n = 0 then 0. else float_of_int x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* the reference kernel: a yardstick for the host's speed               *)
(* ------------------------------------------------------------------ *)

(* On a shared host the speed of the core changes from moment to
   moment: a co-tenant on the same physical core can slow every op by
   up to 2x for stretches of milliseconds to minutes, so wall time per
   op is bimodal and its median jumps between runs. The measured loop
   therefore runs this fixed kernel between ops, about once per
   [Reference.period] of op time, and reports op time in units of the
   kernel's time measured beside it. The kernel is code of the
   benchmark's own, never of the program. Co-tenants slow different
   kinds of work by different factors (1.1x for dependent loads, 1.5x
   for hashing, 1.7x for limb arithmetic, as measured on a 2-vCPU VM),
   so it mixes the kinds the simulator and its crypto do: dependent
   loads through a 32 KB table, small-key hashing, a balanced-tree walk
   and multi-precision limb products. It allocates nothing, so it
   leaves the allocation metrics alone. *)
module Reference = struct
  module Ints = Map.Make (Int)

  let size = 4096
  let table = Array.init size (fun i -> ((i * 1105) + 7) land (size - 1))
  let keys = Hashtbl.create 64
  let () = for k = 0 to 63 do Hashtbl.replace keys k (k * k) done
  let tree = List.fold_left (fun m k -> Ints.add (k * 7) k m) Ints.empty (List.init 256 Fun.id)
  let limbs = Array.init 32 (fun i -> (i * 12345) land 0x3ffffff)
  let product = Array.make 64 0

  let run () =
    let acc = ref 0 and j = ref 0 in
    for i = 0 to 511 do
      j := Array.unsafe_get table ((!j + i) land (size - 1));
      acc := !acc + !j + Hashtbl.find keys (i land 63);
      if i land 3 = 0 then acc := !acc + Ints.find ((!acc land 255) * 7) tree
    done;
    for _ = 1 to 4 do
      for i = 0 to 31 do
        let carry = ref 0 in
        for k = 0 to 31 do
          let t = product.(i + k) + (limbs.(i) * limbs.(k)) + !carry in
          product.(i + k) <- t land 0x3ffffff;
          carry := t lsr 26
        done;
        product.(i + 32) <- !carry
      done
    done;
    !acc + product.(17)

  (* one run per half millisecond of op time, about 6% of the loop *)
  let period = 500_000

  (* host ns of one run *)
  let time () =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (run ()));
    now_ns () - t0
end

(* ------------------------------------------------------------------ *)
(* phase split: consecutive laps around the public calls of one op     *)
(* ------------------------------------------------------------------ *)

module Phase = struct
  type t = { mutable sim : int; mutable n : int; host : Samples.t }

  let make () = { sim = 0; n = 0; host = Samples.create 4096 }

  (* laps count only over the measured prefix, not in warm-up *)
  let recording = ref false
  let last_sim = ref 0
  let last_host = ref 0

  let mark clock =
    last_sim := Clock.now clock;
    last_host := now_ns ()

  let lap clock p =
    let s = Clock.now clock and h = now_ns () in
    if !recording then begin
      p.sim <- p.sim + (s - !last_sim);
      p.n <- p.n + 1;
      Samples.add p.host (h - !last_host)
    end;
    last_sim := s;
    last_host := h

  let sim_per_op p = per p.n p.sim
  let host_us_p50 p = float_of_int (pct (Samples.sorted p.host) 0.5) /. 1e3
end

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = { sim : int; ok : bool; status : int; payload : string }

type session = {
  clock : Clock.t;
  journal : Journal.t;
  warm : unit -> int * int;  (** warm/load phase, timed as set-up: (ops, failures) *)
  op : Prng.t -> int -> outcome;  (** op [n] of the seeded stream *)
}

type workload = {
  name : string;
  boot : seed:int -> session;
  session_cap : int;  (** ops each booted system serves *)
  traced : bool;  (** whether the traced run applies (kv path only) *)
  phases : (string * Phase.t * bool) list;  (** name, laps, has a sim clock *)
}

(* -- kv over the channel-backed net path -------------------------- *)

let ph_submit = Phase.make ()
let ph_drain = Phase.make ()
let ph_step = Phase.make ()
let ph_recv = Phase.make ()

(* E20's client/server system:
   loopback network, channel-backed stack, partition -> cache -> log on
   a 1024-block device, KV on port 70, the client on port 71 *)
let kv_boot ~ws ~put_every ~seed =
  let fail what e = failwith (Printf.sprintf "kv boot: %s: %s" what e) in
  let sys = System.create ~seed () in
  let k = System.kernel sys in
  let net =
    System.setup_networking sys ~placement:System.Certified ~addr:42 ~loopback:true ()
  in
  let nsc, _ = System.channel_net sys net () in
  ignore
    (System.setup_store sys ~placement:System.Certified ~count:1024 ~cache_capacity:16
       ());
  let kdom = Kernel.kernel_domain k and api = Kernel.api k in
  let kv = Kv.create api kdom ~name:"kv0" ~log:"/store/log0" () in
  (match Kv.serve api kdom ~kv ~net:nsc ~port:70 () with
  | Ok _ -> ()
  | Error e -> fail "serve" (Oerror.to_string e));
  let cdom = System.new_domain sys "kvclient" in
  let ring =
    match Netstack_chan.bind nsc ~port:71 ~owner:cdom ~mode:Chan.Poll () with
    | Ok c -> c
    | Error e -> fail "bind" e
  in
  let txh = Netstack_chan.attach_tx nsc ~producer:cdom in
  let mmu = Machine.mmu (Kernel.machine k) in
  let clock = Kernel.clock k in
  let journal = Obs.journal (Clock.obs clock) in
  let keys = Array.init ws (fun i -> Bytes.of_string (Printf.sprintf "k%04d" i)) in
  (* the oracle: the last value acknowledged for each key *)
  let model = Array.make ws "" in
  let request ~op i value =
    let t0 = Clock.now clock in
    let rid =
      Journal.req_begin journal ~domain:cdom.Domain.id ~at:t0
        ~detail:(if op = Storewire.kv_put then "put" else "get")
    in
    Mmu.switch_context mmu cdom.Domain.id;
    let cctx = Kernel.ctx k cdom in
    Phase.mark clock;
    let req = Storewire.Kvmsg.build_req cctx ~op ~key:keys.(i) value in
    let sent = Netstack_chan.submit txh cctx ~dst:42 ~sport:71 ~dport:70 req in
    Phase.lap clock ph_submit;
    Mmu.switch_context mmu kdom.Domain.id;
    ignore (Netstack_chan.drain_tx nsc);
    Phase.lap clock ph_drain;
    Kernel.step k ~ticks:2 ();
    Phase.lap clock ph_step;
    Mmu.switch_context mmu cdom.Domain.id;
    let resp =
      match Chan.recv_batch ring () with
      | [ msg ] -> (
        match Netwire.Delivery.parse cctx msg with
        | Error _ -> None
        | Ok d -> Result.to_option (Storewire.Kvmsg.parse_resp cctx d.Netwire.Delivery.payload))
      | _ -> None
    in
    Phase.lap clock ph_recv;
    Mmu.switch_context mmu kdom.Domain.id;
    let t1 = Clock.now clock in
    Journal.req_end journal ~domain:cdom.Domain.id ~at:t1 rid;
    match resp with
    | None -> { sim = t1 - t0; ok = false; status = -1; payload = "" }
    | Some { Storewire.Kvmsg.status; payload } ->
      let payload = Bytes.to_string payload in
      let ok =
        sent && status = Storewire.Kvmsg.status_ok
        && (op = Storewire.kv_put || String.equal payload model.(i))
      in
      if ok && op = Storewire.kv_put then model.(i) <- Bytes.to_string value;
      { sim = t1 - t0; ok; status; payload }
  in
  let warm () =
    let failed = ref 0 in
    let count o = if not o.ok then incr failed in
    for i = 0 to ws - 1 do
      count (request ~op:Storewire.kv_put i (Bytes.of_string (Printf.sprintf "w%04d" i)))
    done;
    for i = 0 to ws - 1 do
      count (request ~op:Storewire.kv_get i Bytes.empty)
    done;
    (2 * ws, !failed)
  in
  let op gen n =
    let i = Prng.int gen ws in
    if put_every > 0 && n mod put_every = put_every - 1 then
      request ~op:Storewire.kv_put i (Bytes.of_string (Printf.sprintf "u%07d" n))
    else request ~op:Storewire.kv_get i Bytes.empty
  in
  { clock; journal; warm; op }

let kv_phases =
  [ ("net.submit", ph_submit, true); ("net.drain_tx", ph_drain, true);
    ("kernel.step", ph_step, true); ("net.recv", ph_recv, true) ]

(* 12 keys under the 16-line cache, gets only: no block I/O. The NIC
   model keeps every transmitted frame, so a session is capped by op
   count, not time, to keep the heap metrics independent of speed. *)
let kv_resident =
  {
    name = "kv-resident";
    boot = kv_boot ~ws:12 ~put_every:0;
    session_cap = 30000;
    traced = true;
    phases = kv_phases;
  }

(* 64 keys against the 16 lines, one put in four. The log has no
   compaction and the device 1024 blocks, so a booted system takes at
   most 1023 appends: 64 at load plus 900 here. *)
let kv_spill_write =
  {
    name = "kv-spill-write";
    boot = kv_boot ~ws:64 ~put_every:4;
    session_cap = 3600;
    traced = true;
    phases = kv_phases;
  }

(* -- compose: certify, load, bind, call through a proxy, unload ---- *)

let ph_certify = Phase.make ()
let ph_load = Phase.make ()
let ph_bind = Phase.make ()
let ph_call = Phase.make ()
let ph_unload = Phase.make ()
let calls_per_op = 8

let echo_iface =
  Iface.make ~name:"echo"
    [
      Iface.meth ~name:"echo" ~args:[ Vtype.Tint ] ~ret:Vtype.Tint (fun _ -> function
        | [ Value.Int x ] -> Ok (Value.Int x)
        | _ -> Error (Oerror.Type_error "echo(int)"));
    ]

let echo_construct (api : Api.t) (dom : Domain.t) =
  Instance.create api.Api.registry ~class_name:"perfbench.echo" ~domain:dom.Domain.id
    [ echo_iface ]

let compose_boot ~seed =
  let sys = System.create ~seed () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k and api = Kernel.api k in
  let udom = System.new_domain sys "extuser" in
  let loader = Kernel.loader k and authority = System.authority sys in
  let mmu = Machine.mmu (Kernel.machine k) in
  let clock = Kernel.clock k in
  let path = Path.of_string "/ext/echo" in
  let op _gen _n =
    let t0 = Clock.now clock in
    Phase.mark clock;
    let image = Images.image ~name:"echo" ~size:4096 ~type_safe:true echo_construct in
    let image, _trail = Images.certify authority ~now:t0 image in
    Phase.lap clock ph_certify;
    Loader.publish loader image;
    let loaded = Loader.load loader ~name:"echo" ~into:kdom ~at:path () in
    Phase.lap clock ph_load;
    let proxy = Api.bind api udom path in
    Phase.lap clock ph_bind;
    let answered = ref 0 in
    (match proxy with
    | Error _ -> ()
    | Ok proxy ->
      Mmu.switch_context mmu udom.Domain.id;
      let uctx = Kernel.ctx k udom in
      for c = 1 to calls_per_op do
        match Invoke.call uctx proxy ~iface:"echo" ~meth:"echo" [ Value.Int c ] with
        | Ok (Value.Int x) when x = c -> incr answered
        | _ -> ()
      done;
      Mmu.switch_context mmu kdom.Domain.id);
    Phase.lap clock ph_call;
    let unloaded = Loader.unload loader path in
    Phase.lap clock ph_unload;
    let gone = Result.is_error (Api.bind api udom path) in
    let ok =
      image.Loader.cert <> None && Result.is_ok loaded && !answered = calls_per_op
      && Result.is_ok unloaded && gone
    in
    { sim = Clock.now clock - t0; ok; status = !answered; payload = "" }
  in
  let warm () =
    let gen = Prng.create ~seed in
    let failed = ref 0 in
    for n = 0 to 1 do
      if not (op gen n).ok then incr failed
    done;
    (2, !failed)
  in
  { clock; journal = Obs.journal (Clock.obs clock); warm; op }

(* every bind maps a proxy entry page that unload does not return, so a
   1024-frame system serves about 1020 ops; four systems of 275 carry
   the prefix *)
let compose =
  {
    name = "compose";
    boot = compose_boot;
    session_cap = 275;
    traced = false;
    phases =
      [ ("secure.certify", ph_certify, false); ("nucleus.load", ph_load, true);
        ("nucleus.bind", ph_bind, true); ("nucleus.proxy_call", ph_call, true);
        ("nucleus.unload", ph_unload, true) ];
  }

let workloads = [ kv_resident; kv_spill_write; compose ]

(* ------------------------------------------------------------------ *)
(* the measured loop                                                   *)
(* ------------------------------------------------------------------ *)

(* Every session boots a system, warms it (untimed for the op metrics,
   timed as set-up) and runs [session_cap] ops of the seeded stream.
   Sessions repeat until the host budget, boots included, is spent and
   at least [min_sessions] set-ups were timed; each boot draws its own system
   seed from the run seed, so set-up time is a median over several
   key-generation draws. The simulated metrics, counters, allocation
   and heap metrics are read over the first [prefix] ops and the
   sessions that run them, whose boundaries are op counts, so one seed
   gives identical values on every run; 1100 samples leave eleven
   beyond the p99. Raw host times use every op. Op time in reference
   units is read after the sessions that carry the prefix, per window
   of [window_refs] reference runs (16 ms of op time on the kv
   workloads, about four compose ops): the window's mean op time over
   the mean time of the reference runs in it. GC work therefore
   counts, and a co-tenant that slows both cancels out. *)
let prefix = 1100
let window_refs = 32
let system_seed seed session = (seed * 7919) + session

type result = {
  prefix_sim : int array;  (** simulated cycles of the first [prefix] ops *)
  prefix_reply : int array;  (** a hash of each of their replies *)
  host : int array;  (** per-op host ns, every op, sorted *)
  rel : float array;  (** per-window op time in reference runs, sorted *)
  refs : int array;  (** host ns per reference run, sorted *)
  setups : int array;  (** host ns per boot + warm, sorted *)
  ops : int;
  attempted : int;
  failed : int;
  measured_ns : int;
  alloc_words : float;  (** allocated over the prefix *)
  retained_per_op : float;  (** live-word growth per op over the prefix sessions *)
  top_heap_words : int;  (** high-water heap by the end of the prefix sessions *)
  counts : (string * int) list;  (** counter deltas over the prefix *)
  journal_events : int;  (** journal records over the prefix *)
  first : (session * int) option;  (** a replay's first system and its warm ops *)
}

let alloc_now () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let failed_op e = { sim = 0; ok = false; status = -1; payload = Printexc.to_string e }

(* [replay] runs only the prefix and keeps the first system for the
   caller *)
let measure ?(replay = false) (w : workload) ~seed ~seconds =
  let budget = int_of_float (seconds *. 1e9) and min_sessions = if replay then 1 else 7 in
  let gen = Prng.create ~seed in
  (* unboxed and allocated up front, so that keeping them does not read
     as retained heap *)
  let prefix_sim = Array.make prefix 0 and prefix_reply = Array.make prefix 0 in
  let host = Samples.create 65536 and setups = Samples.create 64 in
  let refs = Samples.create 65536 and rel = Array.make 65536 0. and windows = ref 0 in
  let owed = ref 0 and w_op = ref 0 and w_ops = ref 0 and w_ref = ref 0 and w_refs = ref 0 in
  let ops = ref 0 and attempted = ref 0 and failed = ref 0 in
  let measured = ref 0 and sessions = ref 0 and run_start = now_ns () in
  let retained = ref 0 and retained_ops = ref 0 and top_heap = ref 0 in
  let alloc = ref 0. and counts = Hashtbl.create 32 and jevents = ref 0 in
  let first = ref None in
  (* after each op, the reference runs it owes, and the window's close *)
  let yardstick op_ns =
    w_op := !w_op + op_ns;
    incr w_ops;
    owed := !owed + op_ns;
    while !owed >= Reference.period do
      owed := !owed - Reference.period;
      let r = Reference.time () in
      Samples.add refs r;
      w_ref := !w_ref + r;
      incr w_refs
    done;
    if !w_refs >= window_refs then begin
      if !windows < Array.length rel then begin
        rel.(!windows) <- per !w_ops !w_op /. per !w_refs !w_ref;
        incr windows
      end;
      w_op := 0;
      w_ops := 0;
      w_ref := 0;
      w_refs := 0
    end
  in
  while
    !sessions < min_sessions || now_ns () - run_start < budget || !ops < prefix
  do
    let t0 = now_ns () in
    let s = w.boot ~seed:(system_seed seed !sessions) in
    let warm_ops, warm_failed = s.warm () in
    Samples.add setups (now_ns () - t0);
    if replay && !first = None then first := Some (s, warm_ops);
    attempted := !attempted + warm_ops;
    failed := !failed + warm_failed;
    let in_prefix = !ops < prefix in
    let live0 = if in_prefix then live_words () else 0 in
    let snap = Clock.snapshot s.clock and jw = Journal.written s.journal in
    let a0 = alloc_now () in
    let closed = ref (not in_prefix) in
    let close_prefix () =
      if not !closed then begin
        closed := true;
        alloc := !alloc +. (alloc_now () -. a0);
        List.iter
          (fun (c, d) ->
            Hashtbl.replace counts c (d + Option.value ~default:0 (Hashtbl.find_opt counts c)))
          (Clock.since s.clock snap).Clock.counts;
        jevents := !jevents + (Journal.written s.journal - jw)
      end
    in
    let n = ref 0 and fin = ref false in
    while not !fin do
      Phase.recording := (not replay) && !ops < prefix;
      let h0 = now_ns () in
      let o = try s.op gen !ops with e -> failed_op e in
      let h1 = now_ns () in
      Samples.add host (h1 - h0);
      measured := !measured + (h1 - h0);
      (* not in the sessions that carry the prefix: how often it runs
         follows the host's speed, and so would the heap metrics *)
      if (not replay) && not in_prefix then yardstick (h1 - h0);
      if !ops < prefix then begin
        prefix_sim.(!ops) <- o.sim;
        prefix_reply.(!ops) <- (Hashtbl.hash o.payload * 31) + o.status
      end;
      if not o.ok then incr failed;
      incr ops;
      incr n;
      if !ops = prefix then close_prefix ();
      fin := !n >= w.session_cap || (replay && !ops >= prefix)
    done;
    Phase.recording := false;
    if in_prefix then begin
      retained := !retained + (live_words () - live0);
      retained_ops := !retained_ops + !n;
      top_heap := (Gc.quick_stat ()).Gc.top_heap_words
    end;
    close_prefix ();
    attempted := !attempted + !n;
    incr sessions
  done;
  {
    prefix_sim;
    prefix_reply;
    host = Samples.sorted host;
    rel =
      (let a = Array.sub rel 0 !windows in
       Array.sort compare a;
       a);
    refs = Samples.sorted refs;
    setups = Samples.sorted setups;
    ops = !ops;
    attempted = !attempted;
    failed = !failed;
    measured_ns = !measured;
    alloc_words = !alloc;
    retained_per_op = per !retained_ops !retained;
    top_heap_words = !top_heap;
    counts = List.sort compare (Hashtbl.fold (fun c d acc -> (c, d) :: acc) counts []);
    journal_events = !jevents;
    first = !first;
  }

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_number f = if Float.is_finite f then Printf.sprintf "%.12g" f else "null"

(* [printed] lines are shown but kept out of the JSON *)
let report ?(printed = []) ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "%-38s %16s %-9s%s\n" name (json_number v) unit
        (if note = "" then "" else "  " ^ note))
    (metrics @ printed);
  let fields =
    List.map
      (fun (name, v, unit, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let end_to_end r =
  let sims = r.prefix_sim in
  let n = Array.length sims in
  let sorted = Array.copy sims in
  Array.sort compare sorted;
  let total_sim = Array.fold_left ( + ) 0 sims in
  let beyond_p99 = n - 1 - rank n 0.99 in
  let samples k = Printf.sprintf "(%d samples)" k in
  let windows = Array.length r.rel in
  [
    ("setup_s", float_of_int (pct r.setups 0.5) /. 1e9, "s", samples (Array.length r.setups));
    ("sim_op_cyc.p50", float_of_int (pct sorted 0.5), "cyc", samples n);
    ("sim_op_cyc.p99", float_of_int (pct sorted 0.99), "cyc",
     Printf.sprintf "(%d samples, %d beyond p99)" n beyond_p99);
    ("sim_ops_per_Mcyc", per total_sim (n * 1_000_000), "ops/Mcyc", samples n);
    ("host_op_refs.p50", (if windows = 0 then Float.nan else r.rel.(rank windows 0.5)), "refs",
     Printf.sprintf "(%d windows of %d reference runs)" windows window_refs);
    ("host_alloc_words_per_op", r.alloc_words /. float_of_int prefix, "words/op",
     samples prefix);
    ("host_retained_words_per_op", r.retained_per_op, "words/op", "");
    ("host_peak_heap_mb", float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB",
     "");
  ]

(* raw wall time, which follows the host's speed: printed, and carried
   without a bound among the per-layer metrics *)
let host_time r =
  let us ns = float_of_int ns /. 1e3 in
  [
    ("host_op_us.p50", us (pct r.host 0.5), "us", Printf.sprintf "(%d samples)" (Array.length r.host));
    ("host_ops_per_s", float_of_int r.ops /. (float_of_int r.measured_ns /. 1e9), "ops/s",
     Printf.sprintf "(%d samples)" r.ops);
    ("host_ref_us.p50", us (pct r.refs 0.5), "us",
     Printf.sprintf "(%d samples)" (Array.length r.refs));
  ]

let fail_ratio r = per r.attempted r.failed

(* ------------------------------------------------------------------ *)
(* per-layer: determinism re-run and traced run                        *)
(* ------------------------------------------------------------------ *)

(* the run's first [prefix] ops again, on fresh boots *)
let replay w ~seed = measure ~replay:true w ~seed ~seconds:0.

(* Query-folded requests of a traced replay. Tracing is switched on
   before the boot, because the wire formats carry the request id only
   while it is on. The kv workloads run the whole prefix in their first
   system. *)
let traced_replay w ~seed =
  Journal.set_default_mode Journal.Full;
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Journal.set_default_mode Journal.Tail)
    (fun () ->
      let t = replay w ~seed in
      let s, warm_ops = Option.get t.first in
      let j = s.journal in
      match Query.fold ~complete:(Journal.complete j) (Journal.history j) with
      | Error e -> Error e
      | Ok reqs -> Ok (t, List.filteri (fun i _ -> i >= warm_ops) reqs))

let trace_layers = [ "net"; "kv"; "log"; "cache"; "partition"; "driver"; "media" ]

(* the attribution telescopes by construction; 2 cycles is a cross-check
   of the fold, not a tolerance for lost cycles *)
let epsilon = 2

(* ------------------------------------------------------------------ *)
(* per-layer: store probe (E19 shape) and primitive host costs         *)
(* ------------------------------------------------------------------ *)

(* reads and writes straight into each layer of the block stack, over a
   16-block working set inside the 32-line cache, after a warm pass *)
let store_probe sys =
  let k = System.kernel sys in
  let store =
    System.setup_store sys ~placement:System.Certified ~count:256 ~cache_capacity:32 ()
  in
  let kdom = Kernel.kernel_domain k in
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
  let ctx = Kernel.ctx k kdom and clock = Kernel.clock k in
  let blocks = 16 and ops = 128 and ok = ref true in
  let data = Value.Blob (Bytes.make 512 'w') in
  let measure inst meth =
    let call b =
      let args = if meth = "write" then [ Value.Int b; data ] else [ Value.Int b ] in
      if Result.is_error (Invoke.call ctx inst ~iface:"block" ~meth args) then ok := false
    in
    for b = 0 to blocks - 1 do
      call b
    done;
    let t0 = Clock.now clock in
    for n = 0 to ops - 1 do
      call (n mod blocks)
    done;
    per ops (Clock.now clock - t0)
  in
  let m =
    [
      ("store.blkdrv.read_cyc", measure store.System.blk_driver "read", "cyc/op");
      ("store.blkdrv.write_cyc", measure store.System.blk_driver "write", "cyc/op");
      ("store.part.read_cyc", measure store.System.partition "read", "cyc/op");
      ("store.cache.hit_read_cyc", measure store.System.block_cache "read", "cyc/op");
      ("store.cache.write_cyc", measure store.System.block_cache "write", "cyc/op");
    ]
  in
  (m, !ok)

(* host ns per run of [f], by Bechamel's least-squares fit over runs *)
let ns_per_run name f =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false () in
  let raw =
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ]
      (Test.make ~name (Staged.stage f))
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let fits = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ fit acc ->
      match Analyze.OLS.estimates fit with Some [ e ] -> e | _ -> acc)
    fits Float.nan

let primitives sys =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k and api = Kernel.api k in
  let udom = System.new_domain sys "probeuser" in
  let mmu = Machine.mmu (Kernel.machine k) in
  (* key generation depends on the draw, so it is timed over a fixed
     set of draws rather than fitted *)
  let draws = 8 in
  let t0 = now_ns () in
  for d = 1 to draws do
    ignore (Rsa.generate (Prng.create ~seed:d) ~bits:512)
  done;
  let keygen_ms = float_of_int (now_ns () - t0) /. 1e6 /. float_of_int draws in
  let rng = Prng.create ~seed:0x5EED in
  let key = Rsa.generate rng ~bits:512 in
  let digest = Sha256.digest "perfbench" in
  let signature = Rsa.sign key digest in
  let nat () = Nat.of_bytes_be (Prng.bytes rng 64) in
  let base = nat () and exp = nat () and modulus = key.Rsa.pub.Rsa.n in
  let page = String.make 4096 'p' in
  let mclock = Clock.create () in
  let tlb = Mmu.create mclock Cost.default ~page_size:4096 in
  let mctx = Mmu.new_context tlb in
  Mmu.map tlb mctx ~vpage:1 ~frame:7 ~prot:Mmu.Read_write;
  Mmu.switch_context tlb mctx;
  let chan =
    Chan.create (Kernel.machine k) api.Api.vmem ~name:"probe" ~slots:8 ~slot_size:128
      ~mode:Chan.Poll ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  let msg = Bytes.make 64 'c' in
  let journal = Journal.create () in
  let target = echo_construct api kdom in
  Kernel.register_at k "/probe/echo" target;
  let proxy = Kernel.bind k udom "/probe/echo" in
  let kctx = Kernel.ctx k kdom and uctx = Kernel.ctx k udom in
  let echo ctx inst () = ignore (Invoke.call ctx inst ~iface:"echo" ~meth:"echo" [ Value.Int 1 ]) in
  let us x = x /. 1e3 and ns x = x in
  Mmu.switch_context mmu kdom.Domain.id;
  let in_kernel =
    [
      ("crypto.rsa_generate_512_ms", keygen_ms, "ms");
      ("bignum.mod_pow_512_us", us (ns_per_run "modpow" (fun () -> Nat.mod_pow base exp modulus)), "us");
      ("crypto.rsa_sign_us", us (ns_per_run "sign" (fun () -> Rsa.sign key digest)), "us");
      ("crypto.rsa_verify_us",
       us (ns_per_run "verify" (fun () -> Rsa.verify key.Rsa.pub ~digest ~signature)), "us");
      ("crypto.sha256_4k_us", us (ns_per_run "sha256" (fun () -> Sha256.digest page)), "us");
      ("machine.mmu_translate_read_ns",
       ns (ns_per_run "read" (fun () -> Mmu.translate tlb mctx 4100 Mmu.Read)), "ns");
      ("machine.mmu_translate_write_ns",
       ns (ns_per_run "write" (fun () -> Mmu.translate tlb mctx 4100 Mmu.Write)), "ns");
      ("chan.send_recv_64_ns",
       ns (ns_per_run "chan" (fun () ->
          ignore (Chan.try_send chan msg);
          Chan.try_recv chan)), "ns");
      ("machine.clock_count_ns", ns (ns_per_run "count" (fun () -> Clock.count mclock "probe")), "ns");
      ("journal.record_ns",
       ns (ns_per_run "record" (fun () ->
          Journal.record journal ~kind:Journal.Mark ~domain:0 ~at:0 ~info:0 ~detail:"probe")), "ns");
      ("objmodel.invoke_ns", ns (ns_per_run "invoke" (echo kctx target)), "ns");
    ]
  in
  Mmu.switch_context mmu udom.Domain.id;
  let proxied = ns_per_run "proxy" (echo uctx proxy) in
  Mmu.switch_context mmu kdom.Domain.id;
  in_kernel @ [ ("nucleus.proxy_call_ns", ns proxied, "ns") ]

(* ------------------------------------------------------------------ *)
(* per-layer report                                                    *)
(* ------------------------------------------------------------------ *)

let counter_names =
  [ ("machine.tlb_fill_per_op", "tlb_fill");
    ("machine.context_switch_per_op", "context_switch");
    ("machine.interrupt_per_op", "interrupt");
    ("objmodel.method_invocation_per_op", "method_invocation");
    ("objmodel.component_mem_access_per_op", "component_mem_access");
    ("machine.blk_issue_per_op", "blk_issue"); ("machine.blk_wait_per_op", "blk_wait");
    ("chan.send_per_op", "chan_send"); ("chan.doorbell_per_op", "chan_doorbell");
    ("net.mpsc_reserve_per_op", "mpsc_reserve");
    ("threads.proto_thread_per_op", "proto_thread");
    ("nucleus.proxy_fault_per_op", "proxy_fault");
    ("nucleus.cert_validation_per_op", "cert_validation") ]

(* every workload reports every phase; one it does not cross reads 0 *)
let phase_metrics w =
  List.concat_map
    (fun (name, p, has_sim) ->
      let mine = List.exists (fun (n, _, _) -> n = name) w.phases in
      let v f = if mine then f p else 0. in
      (if has_sim then [ (name ^ ".sim_cyc", v Phase.sim_per_op, "cyc/op") ] else [])
      @ [ (name ^ ".host_us", v Phase.host_us_p50, "us") ])
    (kv_phases @ compose.phases)

let per_layer w r ~seed =
  let failures = ref 0 and attempted = ref r.attempted in
  let check what ok =
    if not ok then begin
      incr failures;
      Printf.printf "check failed: %s\n" what
    end
  in
  let phases = phase_metrics w in
  let counters =
    List.map
      (fun (m, c) ->
        (m, per prefix (Option.value ~default:0 (List.assoc_opt c r.counts)), "count/op"))
      counter_names
    @ [ ("journal.events_per_op", per prefix r.journal_events, "count/op") ]
  in
  (* determinism: fresh boots with the same seed repeat every simulated
     latency, reply, counter and journal record of the prefix *)
  let again = replay w ~seed in
  attempted := !attempted + again.attempted;
  check "same-seed replay"
    (again.prefix_sim = r.prefix_sim && again.prefix_reply = r.prefix_reply
    && again.counts = r.counts
    && again.journal_events = r.journal_events && again.failed = 0);
  (* traced run: per-layer attribution, its overhead, the cache hit
     ratio, and the telescoping check against the untraced latencies *)
  let zero_trace () =
    List.map (fun l -> ("trace." ^ l ^ "_cyc", 0., "cyc/op")) trace_layers
    @ [ ("trace.overhead_cyc", 0., "cyc/op"); ("store.cache_hit_ratio", 0., "ratio") ]
  in
  let traced =
    if not w.traced then zero_trace ()
    else
      match traced_replay w ~seed with
      | Error e ->
        check ("traced fold: " ^ e) false;
        zero_trace ()
      | Ok (_, reqs) when List.length reqs <> prefix ->
        check "traced request count" false;
        zero_trace ()
      | Ok (t, reqs) ->
        attempted := !attempted + t.attempted;
        let untraced = Array.to_list r.prefix_sim in
        check "traced run replies" (t.failed = 0);
        check "traced replies equal untraced" (t.prefix_reply = r.prefix_reply);
        let deltas =
          Array.of_list (List.map2 (fun q sim -> Query.duration q - sim) reqs untraced)
        in
        Array.sort compare deltas;
        let overhead = pct deltas 0.5 in
        List.iteri
          (fun i (q, sim) ->
            let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 (Query.attribution q) in
            check (Printf.sprintf "telescoping, request %d" i)
              (abs (sum - (sim + overhead)) <= epsilon))
          (List.combine reqs untraced);
        let totals = Query.layer_totals reqs in
        let notes d =
          List.fold_left
            (fun acc q -> acc + List.length (List.filter (fun (_, n, _) -> n = d) q.Query.notes))
            0 reqs
        in
        let hits = notes "cache-hit" and misses = notes "cache-miss" in
        List.map
          (fun l ->
            ( "trace." ^ l ^ "_cyc",
              per prefix (Option.value ~default:0 (List.assoc_opt l totals)),
              "cyc/op" ))
          trace_layers
        @ [ ("trace.overhead_cyc", float_of_int overhead, "cyc/op");
            ("store.cache_hit_ratio", per (hits + misses) hits, "ratio") ]
  in
  let probe_sys = System.create ~seed:(system_seed seed 1) () in
  let store, store_ok = store_probe probe_sys in
  check "store probe calls" store_ok;
  let prims = primitives probe_sys in
  let metrics =
    host_time r
    @ List.map (fun (n, v, u) -> (n, v, u, "")) (counters @ phases @ traced @ store @ prims)
  in
  let failed = r.failed + !failures in
  report ~correct:(failed = 0) ~attempted:!attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 5. and trace = ref 0 in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W kv-resident | kv-spill-write | compose");
      ("--seed", Arg.Set_int seed, "N seed for the systems and the key order");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some w ->
    Printf.printf "perfbench %s seed %d seconds %g trace %d\n%!" w.name !seed !seconds !trace;
    let r = measure w ~seed:!seed ~seconds:!seconds in
    Printf.printf "%-38s %16s %-9s  (%d failed of %d attempted)\n" "fail_ratio"
      (json_number (fail_ratio r)) "fraction" r.failed r.attempted;
    if !trace = 0 then
      report ~printed:(host_time r) ~correct:(r.failed = 0) ~attempted:r.attempted
        ~failed:r.failed (end_to_end r)
    else per_layer w r ~seed:!seed

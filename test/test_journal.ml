(* Tests for Pm_journal: the event-sourced system history, its export /
   import round-trip, the /nucleus/journal service, transactional
   composition with rollback, deterministic record/replay, and the
   history-derived lint rules. *)

open Paramecium

let journal_of sys = Obs.journal (Clock.obs (System.clock sys))

let contains s sub =
  let slen = String.length sub in
  let rec go i =
    i + slen <= String.length s && (String.sub s i slen = sub || go (i + 1))
  in
  go 0

let record_traps j n =
  for i = 1 to n do
    Journal.record j ~kind:Journal.Trap ~domain:0 ~at:(i * 10) ~info:i
      ~detail:""
  done

(* --- core mechanics ----------------------------------------------------- *)

let test_tail_wrap () =
  let j = Journal.create ~tail_capacity:4 () in
  record_traps j 10;
  Alcotest.(check int) "written counts everything" 10 (Journal.written j);
  Alcotest.(check int) "all were execution events" 10 (Journal.exec_written j);
  Alcotest.(check (list int))
    "ring keeps the newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Journal.info) (Journal.tail j));
  Alcotest.(check int) "tail mode retains no history" 0 (Journal.retained j);
  Alcotest.(check bool) "tail mode is not complete" false (Journal.complete j);
  Alcotest.(check int) "per-kind count" 10 (Journal.count j Journal.Trap)

let test_structural_archive_survives_wrap () =
  let j = Journal.create ~tail_capacity:2 () in
  Journal.record j ~kind:Journal.Bind ~domain:1 ~at:5 ~info:7 ~detail:"/a";
  record_traps j 50;
  Journal.record j ~kind:Journal.Unbind ~domain:1 ~at:600 ~info:7 ~detail:"/a";
  (* the ring forgot the Bind long ago; the archive never does *)
  Alcotest.(check int) "ring holds only tail_capacity" 2
    (List.length (Journal.tail j));
  Alcotest.(check bool) "archive kept both mutations in order" true
    (List.map (fun e -> e.Journal.kind) (Journal.structural j)
    = [ Journal.Bind; Journal.Unbind ])

let test_full_compaction () =
  let j = Journal.create ~retain:8 () in
  Journal.set_mode j Journal.Full;
  Alcotest.(check bool) "full from event 0 is complete" true (Journal.complete j);
  record_traps j 20;
  Alcotest.(check int) "retained bounded by retain" 8 (Journal.retained j);
  Alcotest.(check int) "compaction is counted, never silent" 12
    (Journal.compacted j);
  Alcotest.(check bool) "compaction voids completeness" false
    (Journal.complete j);
  Alcotest.(check (list int))
    "oldest events dropped first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Journal.info) (Journal.history j))

let test_mode_switching () =
  let j = Journal.create () in
  Alcotest.(check string) "new journals default to tail" "tail"
    (Journal.mode_to_string (Journal.mode j));
  record_traps j 3;
  Journal.set_mode j Journal.Full;
  Alcotest.(check bool) "mid-run switch is not complete" false
    (Journal.complete j);
  record_traps j 2;
  Alcotest.(check (list int))
    "history starts at the switch" [ 1; 2 ]
    (List.map (fun e -> e.Journal.info) (Journal.history j));
  Alcotest.(check (list int))
    "seq numbering is global" [ 3; 4 ]
    (List.map (fun e -> e.Journal.seq) (Journal.history j));
  (* switching back stops extending but keeps what was captured *)
  Journal.set_mode j Journal.Tail;
  record_traps j 1;
  Alcotest.(check int) "tail mode stops the stream" 2 (Journal.retained j)

let test_mark () =
  let j = Journal.create () in
  record_traps j 5;
  let seq = Journal.mark j ~domain:3 ~at:99 "checkpoint" in
  Alcotest.(check int) "mark returns its seq" 5 seq;
  Alcotest.(check int) "marks are counted" 1 (Journal.count j Journal.Mark);
  match Journal.structural j with
  | [ e ] ->
    Alcotest.(check string) "label stored" "checkpoint" e.Journal.detail;
    Alcotest.(check int) "domain stored" 3 e.Journal.domain
  | evs -> Alcotest.failf "expected one structural event, got %d" (List.length evs)

(* --- export / import ----------------------------------------------------- *)

let gnarly_details =
  [
    "plain";
    "";
    "with \"quotes\" inside";
    "line1\nline2\r\ttabbed";
    "back\\slash and %S and %d";
    "frame 7 from dom 2 vpage 9";
    String.make 300 'x';
  ]

let test_export_import_roundtrip () =
  let j = Journal.create () in
  Journal.set_mode j Journal.Full;
  List.iteri
    (fun i d ->
      Journal.record j ~kind:Journal.Install ~domain:i ~at:(i * 7) ~info:i
        ~detail:d)
    gnarly_details;
  Journal.record j ~kind:Journal.Trap ~domain:0 ~at:max_int ~info:min_int
    ~detail:"extremes";
  let ex = Journal.export j in
  Alcotest.(check bool) "header is versioned" true
    (String.length ex >= 13 && String.sub ex 0 13 = "pm-journal-v1");
  match Journal.import ex with
  | Error e -> Alcotest.fail e
  | Ok events ->
    let orig = Journal.history j in
    Alcotest.(check int) "every event came back" (List.length orig)
      (List.length events);
    List.iter2
      (fun a b ->
        Alcotest.(check bool)
          (Printf.sprintf "event %d round-trips" a.Journal.seq)
          true (Journal.event_equal a b))
      orig events

(* rid-stamped events (tracing on) round-trip; unstamped lines carry no
   suffix, so untraced exports keep their exact bytes *)
let test_rid_roundtrip () =
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let j = Journal.create () in
      Journal.set_mode j Journal.Full;
      Journal.record j ~kind:Journal.Trap ~domain:0 ~at:1 ~info:0 ~detail:"";
      Trace.set_enabled true;
      let rid = Journal.req_begin j ~domain:2 ~at:5 ~detail:"put \"k\"\n1" in
      Alcotest.(check bool) "rids mint from 1" true (rid >= 1);
      Journal.record j ~kind:Journal.Span_enter ~domain:0 ~at:6 ~info:0
        ~detail:"kv";
      Journal.record j ~kind:Journal.Span_exit ~domain:0 ~at:9 ~info:0
        ~detail:"kv";
      Journal.req_end j ~domain:2 ~at:11 rid;
      let ex = Journal.export j in
      (match Journal.import ex with
      | Error e -> Alcotest.fail e
      | Ok events ->
        List.iter2
          (fun a b ->
            Alcotest.(check bool)
              (Printf.sprintf "event %d round-trips with rid %d" a.Journal.seq
                 a.Journal.rid)
              true (Journal.event_equal a b))
          (Journal.history j) events;
        let rids = List.map (fun e -> e.Journal.rid) events in
        Alcotest.(check (list int)) "rid stamped on traced events only"
          [ 0; rid; rid; rid; rid ] rids);
      (* the untraced event's line must not mention rid at all *)
      match String.split_on_char '\n' ex with
      | _header :: first :: _ ->
        Alcotest.(check bool) "untraced line carries no rid field" false
          (contains first "rid=")
      | _ -> Alcotest.fail "export too short")

(* adversarial Mark labels — quotes, newlines, empty — round-trip and
   never break the line format, stamped or not *)
let test_adversarial_marks_roundtrip () =
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let j = Journal.create () in
      Journal.set_mode j Journal.Full;
      Trace.set_enabled true;
      List.iteri
        (fun i d ->
          Trace.set_current (i mod 2);
          (* alternate stamped / unstamped *)
          ignore (Journal.mark j ~domain:0 ~at:i d))
        ("" :: "rid=7 impostor" :: gnarly_details);
      match Journal.import (Journal.export j) with
      | Error e -> Alcotest.fail e
      | Ok events ->
        List.iter2
          (fun a b ->
            Alcotest.(check bool)
              (Printf.sprintf "mark %d round-trips" a.Journal.seq)
              true (Journal.event_equal a b))
          (Journal.history j) events)

(* a truncated (non-complete) export imports fine but says so — the
   fail-soft contract the query fold builds on *)
let test_truncated_import_fails_soft () =
  let j = Journal.create ~retain:4 () in
  Journal.set_mode j Journal.Full;
  record_traps j 10;
  Alcotest.(check bool) "compaction voided completeness" false
    (Journal.complete j);
  (match Journal.import_all (Journal.export j) with
  | Error e -> Alcotest.fail e
  | Ok { Journal.events; complete } ->
    Alcotest.(check int) "events still import" 4 (List.length events);
    Alcotest.(check bool) "header says incomplete" false complete;
    (* the causal fold refuses it with a named error, never an exception *)
    match Query.fold ~complete events with
    | Error e ->
      Alcotest.(check bool) "error names the incomplete history" true
        (String.length e >= 17 && String.sub e 0 17 = "query: incomplete")
    | Ok _ -> Alcotest.fail "fold accepted a truncated history");
  (* a complete journal's header says so *)
  let jc = Journal.create () in
  Journal.set_mode jc Journal.Full;
  record_traps jc 2;
  match Journal.import_all (Journal.export jc) with
  | Ok { Journal.complete = true; _ } -> ()
  | Ok _ -> Alcotest.fail "complete journal imported as incomplete"
  | Error e -> Alcotest.fail e

let test_import_rejects_garbage () =
  (match Journal.import "not a journal" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "imported garbage");
  match Journal.import "pm-journal-v1 events=1 complete=1\nbad line here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "imported a malformed event line"

(* the optional suffix is exactly [ rid=N][ cpu=N] with N > 0: anything
   trailing it used to import as Ok, silently zeroing or dropping ids *)
let test_import_rejects_trailing_input () =
  let import line = Journal.import ("pm-journal-v1 events=1 complete=1\n" ^ line) in
  let base = "7 10 2 mark 0 \"x\"" in
  List.iter
    (fun suffix ->
      match import (base ^ suffix) with
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S named" suffix) true
          (contains e "bad event suffix")
      | Ok _ -> Alcotest.failf "imported %S" (base ^ suffix))
    [ " garbage here"; " rid=99999999999999999999999"; " cpu=2 rid=7"; " rid=7 cpu=";
      " rid=0"; " cpu=-3"; " rid=07" ];
  List.iter
    (fun (suffix, rid, cpu) ->
      match import (base ^ suffix) with
      | Ok [ e ] ->
        Alcotest.(check (pair int int)) (Printf.sprintf "%S ids" suffix) (rid, cpu)
          (e.Journal.rid, e.Journal.cpu)
      | Ok _ -> Alcotest.failf "%S: expected one event" suffix
      | Error e -> Alcotest.failf "%S rejected: %s" suffix e)
    [ ("", 0, 0); (" rid=7", 7, 0); (" cpu=2", 0, 2); (" rid=7 cpu=2", 7, 2) ]

(* --- properties: export/import over arbitrary events and inputs ---------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let sample_kinds =
  Journal.
    [ Trap; Crossing; Crash; Install; Bind; Page_share; Mark; Blk_complete; Req_begin;
      Span_enter; Span_exit; Trace_note ]

(* kind, at, domain, info, detail (any bytes), rid and cpu (0 = absent) *)
let gen_event =
  QCheck2.Gen.(
    let id = oneof [ return 0; int_range 1 max_int ] in
    map
      (fun ((kind, at, domain), (info, detail), (rid, cpu)) ->
        (kind, at, domain, info, detail, rid, cpu))
      (triple
         (triple (oneofl sample_kinds) int int)
         (pair int (string_size ~gen:char (int_bound 40)))
         (pair id id)))

let journal_of_events evs =
  let j = Journal.create () in
  Journal.set_mode j Journal.Full;
  Fun.protect
    ~finally:(fun () -> Journal.set_current_cpu 0)
    (fun () ->
      List.iter
        (fun (kind, at, domain, info, detail, rid, cpu) ->
          Journal.set_current_cpu cpu;
          Journal.record j ~rid ~kind ~domain ~at ~info ~detail)
        evs);
  j

let gen_input =
  QCheck2.Gen.(
    let bytes = string_size ~gen:char (int_bound 80) in
    let export = map (fun evs -> Journal.export (journal_of_events evs)) (list_size (int_bound 4) gen_event) in
    oneof
      [
        bytes;
        map (fun s -> "pm-journal-v1 events=1 complete=1\n" ^ s) bytes;
        (* a real export cut short *)
        map2 (fun ex cut -> String.sub ex 0 (cut mod (String.length ex + 1))) export nat;
        (* a real export with one byte overwritten *)
        map3
          (fun ex pos c ->
            let b = Bytes.of_string ex in
            Bytes.set b (pos mod Bytes.length b) c;
            Bytes.to_string b)
          export nat char;
      ])

let props =
  [
    prop "export/import round-trips any events" (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 8) gen_event)
      (fun evs ->
        let j = journal_of_events evs in
        match Journal.import (Journal.export j) with
        | Ok got -> List.equal Journal.event_equal (Journal.history j) got
        | Error _ -> false);
    prop "import never raises" gen_input (fun s ->
        match Journal.import_all s with Ok _ | Error _ -> true);
  ]

let test_first_divergence () =
  let j = Journal.create () in
  Journal.set_mode j Journal.Full;
  record_traps j 4;
  let evs = Journal.history j in
  Alcotest.(check bool) "identical streams do not diverge" true
    (Journal.first_divergence ~expected:evs ~got:evs = None);
  let tweaked =
    List.map
      (fun e ->
        if e.Journal.seq = 2 then { e with Journal.info = 999 } else e)
      evs
  in
  (match Journal.first_divergence ~expected:evs ~got:tweaked with
  | Some d ->
    Alcotest.(check int) "divergence at the tweaked event" 2 d.Journal.index;
    Alcotest.(check bool) "rendering mentions the index" true
      (String.length (Journal.divergence_to_string d) > 0)
  | None -> Alcotest.fail "tweak not detected");
  match
    Journal.first_divergence ~expected:evs
      ~got:(List.filteri (fun i _ -> i < 3) evs)
  with
  | Some { Journal.index = 3; got = None; _ } -> ()
  | _ -> Alcotest.fail "truncation not reported as end-of-journal"

(* --- the /nucleus/journal service ---------------------------------------- *)

let test_journal_service_cross_domain () =
  let sys = System.create () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "observer" in
  let svc = Kernel.bind k udom "/nucleus/journal" in
  Alcotest.(check bool) "cross-domain bind is a proxy" true (Proxy.is_proxy svc);
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  let ctx = Kernel.ctx k udom in
  let call m args = Invoke.call_exn ctx svc ~iface:"journal" ~meth:m args in
  (match call "mode" [] with
  | Value.Str s -> Alcotest.(check string) "default mode" "tail" s
  | _ -> Alcotest.fail "mode()");
  (* a mark is attributed to the calling domain, not the kernel *)
  let seq =
    match call "mark" [ Value.Str "observer-was-here" ] with
    | Value.Int s -> s
    | _ -> Alcotest.fail "mark()"
  in
  Alcotest.(check bool) "mark returns a seq" true (seq >= 0);
  let j = journal_of sys in
  (match
     List.filter (fun e -> e.Journal.kind = Journal.Mark) (Journal.structural j)
   with
  | [ m ] ->
    Alcotest.(check int) "mark charged to the caller" udom.Domain.id
      m.Journal.domain;
    Alcotest.(check string) "label kept" "observer-was-here" m.Journal.detail
  | ms -> Alcotest.failf "expected one mark, got %d" (List.length ms));
  ignore (call "set_mode" [ Value.Str "full" ]);
  (match call "mode" [] with
  | Value.Str s -> Alcotest.(check string) "mode switched" "full" s
  | _ -> Alcotest.fail "mode() after set_mode");
  (match call "complete" [] with
  | Value.Bool b ->
    Alcotest.(check bool) "mid-run switch is incomplete" false b
  | _ -> Alcotest.fail "complete()");
  (match call "stats" [] with
  | Value.Str s ->
    Alcotest.(check bool) "stats line renders" true
      (String.length s >= 8 && String.sub s 0 8 = "journal:")
  | _ -> Alcotest.fail "stats()");
  (match call "snapshot" [ Value.Int 3 ] with
  | Value.Str s ->
    Alcotest.(check bool) "bounded snapshot is at most 3 lines" true
      (List.length (String.split_on_char '\n' s) <= 3)
  | _ -> Alcotest.fail "snapshot(3)");
  match call "export" [] with
  | Value.Str s ->
    (match Journal.import s with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("service export does not import: " ^ e))
  | _ -> Alcotest.fail "export()"

(* --- transactional composition ------------------------------------------- *)

let alloc_image name =
  Images.image ~name ~size:8_192 ~author:"kernel-team"
    (Images.allocator_construct ~heap_pages:2)

let lookup_fails k path =
  match
    Namespace.lookup
      (Directory.namespace (Kernel.directory k))
      (Path.of_string path)
  with
  | Ok _ -> false
  | Error _ -> true

let test_txn_commit () =
  let sys = System.create () in
  let k = System.kernel sys in
  let j = journal_of sys in
  (match
     System.transact sys "wire-alloc" (fun txn ->
         match
           System.txn_install txn (alloc_image "alloc")
             ~placement:System.Certified ~at:"/services/txalloc"
         with
         | Error _ as e -> e
         | Ok inst -> System.txn_register txn "/shared/txalloc" inst)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "install visible" false (lookup_fails k "/services/txalloc");
  Alcotest.(check bool) "alias visible" false (lookup_fails k "/shared/txalloc");
  Alcotest.(check int) "one begin" 1 (Journal.count j Journal.Txn_begin);
  Alcotest.(check int) "one commit" 1 (Journal.count j Journal.Txn_commit);
  Alcotest.(check int) "no abort" 0 (Journal.count j Journal.Txn_abort)

(* roll back after step 1 (install), step 2 (register), step 3
   (interpose): whatever the txn got through must be invisible afterwards
   — namespace, page tables, interposition log, and the linter all read
   as if it never ran *)
let test_txn_rollback_each_step () =
  let at_step step =
    let sys = System.create () in
    let k = System.kernel sys in
    let kdom = Kernel.kernel_domain k in
    let base =
      System.install_exn sys (alloc_image "base") ~placement:System.Certified
        ~at:"/services/base"
    in
    let vmem = Kernel.vmem k in
    let pages_before = List.sort compare (Vmem.alloc_keys vmem) in
    let ( let* ) = Result.bind in
    (match
       System.transact sys "doomed" (fun txn ->
           let* inst =
             System.txn_install txn (alloc_image "tx")
               ~placement:System.Certified ~at:"/services/tx"
           in
           if step = 1 then Error "fail after install"
           else
             let* () = System.txn_register txn "/shared/tx" inst in
             if step = 2 then Error "fail after register"
             else
               let* _displaced =
                 System.txn_interpose txn "/services/base" inst
               in
               Error "fail after interpose")
     with
    | Ok () -> Alcotest.fail "doomed transaction committed"
    | Error _ -> ());
    let tag m = Printf.sprintf "step %d: %s" step m in
    Alcotest.(check bool) (tag "install rolled back") true
      (lookup_fails k "/services/tx");
    Alcotest.(check bool) (tag "register rolled back") true
      (lookup_fails k "/shared/tx");
    Alcotest.(check bool) (tag "interposition log empty") true
      (Directory.replacements (Kernel.directory k) = []);
    Alcotest.(check bool) (tag "original back behind the name") true
      (Kernel.bind k kdom "/services/base" == base);
    Alcotest.(check bool) (tag "pages freed") true
      (List.sort compare (Vmem.alloc_keys vmem) = pages_before);
    let j = journal_of sys in
    Alcotest.(check int) (tag "abort journalled") 1
      (Journal.count j Journal.Txn_abort);
    Alcotest.(check int) (tag "nothing committed") 0
      (Journal.count j Journal.Txn_commit);
    (* the linter sees a healthy system, every rule running *)
    let report =
      Lint.run ~machine:(Kernel.machine k) ~directory:(Kernel.directory k)
        ~events:(Kernel.events k) ~journal:j
        ~domains:(fun () -> Kernel.domains k)
        ()
    in
    Alcotest.(check int) (tag "all rules ran") 9 report.Lint.rules_run;
    Alcotest.(check int) (tag "lint clean") 0
      (List.length (Lint.errors report))
  in
  List.iter at_step [ 1; 2; 3 ]

(* --- deterministic record / replay --------------------------------------- *)

let test_replay_all_scenarios () =
  List.iter
    (fun (name, _desc) ->
      match Replay.record name with
      | Error e -> Alcotest.failf "%s: record failed: %s" name e
      | Ok r ->
        (match Journal.import r.Replay.journal with
        | Ok events ->
          Alcotest.(check bool) (name ^ ": captured events") true
            (List.length events > 0)
        | Error e -> Alcotest.failf "%s: journal unreadable: %s" name e);
        (match Replay.replay r with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: replay diverged: %s" name e))
    Replay.scenarios

let test_replay_crashed_run () =
  (* a run that ends in a thread crash is as replayable as a clean one *)
  match Replay.record "crash" with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let events =
      match Journal.import r.Replay.journal with
      | Ok es -> es
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check bool) "the crash itself is in the history" true
      (List.exists (fun e -> e.Journal.kind = Journal.Crash) events);
    (match Replay.replay r with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("crashed run did not replay: " ^ e))

(* flip the first occurrence of [from] to the same-width [to_], so the
   line still parses — only the event lies *)
let flip s ~from ~to_ =
  let b = Bytes.of_string s in
  let flen = String.length from in
  let rec go i =
    if i + flen > Bytes.length b then s
    else if Bytes.sub_string b i flen = from then begin
      Bytes.blit_string to_ 0 b i (String.length to_);
      Bytes.to_string b
    end
    else go (i + 1)
  in
  go 0

let test_recording_roundtrip_and_tamper () =
  match Replay.record "compose" with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (* on-disk round-trip preserves every field *)
    (match Replay.recording_of_string (Replay.recording_to_string r) with
    | Ok r' ->
      Alcotest.(check string) "scenario survives" r.Replay.scenario
        r'.Replay.scenario;
      Alcotest.(check string) "journal survives" r.Replay.journal
        r'.Replay.journal;
      Alcotest.(check string) "stats survive" r.Replay.stats r'.Replay.stats
    | Error e -> Alcotest.fail ("round-trip failed: " ^ e));
    (* a tampered recording is caught with a divergence diagnosis.
       "txn-abort " is the same width as "txn-commit", so the line still
       parses — only the event kind lies *)
    let tampered =
      { r with
        Replay.journal = flip r.Replay.journal ~from:"txn-commit" ~to_:"txn-abort " }
    in
    Alcotest.(check bool) "tamper left the journal changed" true
      (tampered.Replay.journal <> r.Replay.journal);
    (match Replay.replay tampered with
    | Error e ->
      Alcotest.(check bool) "divergence diagnosed" true
        (String.length e > 0)
    | Ok () -> Alcotest.fail "tampered recording replayed clean");
    match Replay.record "no-such-scenario" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "unknown scenario recorded"

(* --bisect narrows a divergence to the first bad event on the cycle
   axis; on a clean recording it reports there is nothing to narrow *)
let test_bisect_narrows_divergence () =
  match Replay.record "compose" with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (match Replay.bisect r with
    | Ok msg ->
      Alcotest.(check bool) "clean recording has nothing to narrow" true
        (contains msg "nothing to narrow")
    | Error e -> Alcotest.fail ("clean bisect failed: " ^ e));
    let tampered =
      { r with
        Replay.journal =
          flip r.Replay.journal ~from:"txn-commit" ~to_:"txn-abort " }
    in
    (match Replay.bisect tampered with
    | Ok report ->
      Alcotest.(check bool) "report names the divergence cycle" true
        (contains report "diverges at cycle");
      Alcotest.(check bool) "report diagnoses the bad event" true
        (contains report "txn")
    | Error e -> Alcotest.fail ("bisect on tampered recording: " ^ e))

(* --- history-derived lint rules ------------------------------------------ *)

let test_history_lint_on_replayed_runs () =
  List.iter
    (fun name ->
      match Replay.record name with
      | Error e -> Alcotest.fail e
      | Ok r ->
        (match Journal.import r.Replay.journal with
        | Ok events ->
          Alcotest.(check (list string)) (name ^ " lints clean") []
            (List.map
               (fun f -> f.Lint.rule)
               (Lint.history events))
        | Error e -> Alcotest.fail e))
    [ "compose"; "deadlock" ]

let test_page_hygiene_violation () =
  let sys = System.create () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let vmem = Kernel.vmem k in
  (* the clean path first: share, unshare, die — no finding *)
  let clean = System.new_domain sys "tidy" in
  let vaddr = Vmem.alloc_pages vmem kdom ~count:1 ~sharing:Vmem.Shared in
  let mapped =
    Vmem.map_shared vmem ~from_dom:kdom ~vaddr ~count:1 ~into:clean
      ~prot:Mmu.Read_only
  in
  Vmem.free_pages vmem clean ~vaddr:mapped ~count:1;
  Kernel.destroy_domain k clean;
  Alcotest.(check (list string)) "released share lints clean" []
    (List.map
       (fun f -> f.Lint.rule)
       (Lint.history (Journal.structural (journal_of sys))));
  (* now the violation: a domain dies still holding the mapping *)
  let leaky = System.new_domain sys "leaky" in
  ignore
    (Vmem.map_shared vmem ~from_dom:kdom ~vaddr ~count:1 ~into:leaky
       ~prot:Mmu.Read_only);
  Kernel.destroy_domain k leaky;
  let findings = Lint.history (Journal.structural (journal_of sys)) in
  match
    List.filter (fun f -> f.Lint.rule = "page-hygiene") findings
  with
  | [ f ] ->
    Alcotest.(check bool) "an Error-severity finding" true
      (f.Lint.severity = Lint.Error);
    Alcotest.(check bool) "names the dead holder" true
      (String.length f.Lint.detail > 0)
  | fs -> Alcotest.failf "expected one page-hygiene finding, got %d" (List.length fs)

let test_shadowing_warning () =
  let sys = System.create () in
  let k = System.kernel sys in
  let dir = Kernel.directory k in
  let path = Path.of_string "/services/shaded" in
  let base =
    System.install_exn sys (alloc_image "shaded") ~placement:System.Certified
      ~at:"/services/shaded"
  in
  (* a domain pins the original via a view override... *)
  let pinner = System.new_domain sys "pinner" in
  View.add_override pinner.Domain.view path (Instance.handle base);
  (* ...then an interposition swaps what the name resolves to *)
  let agent =
    System.install_exn sys (alloc_image "agent") ~placement:System.Certified
      ~at:"/services/shade-agent"
  in
  (match Directory.replace dir path agent with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Directory.bind_error_to_string e));
  let report =
    Lint.run ~machine:(Kernel.machine k) ~directory:dir ~events:(Kernel.events k)
      ~journal:(journal_of sys)
      ~domains:(fun () -> Kernel.domains k)
      ()
  in
  (match
     List.filter (fun f -> f.Lint.rule = "shadowing") report.Lint.findings
   with
  | [ f ] ->
    Alcotest.(check bool) "a Warning, not an Error" true
      (f.Lint.severity = Lint.Warning);
    Alcotest.(check string) "names the shadowed path" "/services/shaded"
      f.Lint.subject
  | fs -> Alcotest.failf "expected one shadowing finding, got %d" (List.length fs));
  (* removing the override clears the warning *)
  View.remove_override pinner.Domain.view path;
  let report' =
    Lint.run ~machine:(Kernel.machine k) ~directory:dir ~events:(Kernel.events k)
      ~domains:(fun () -> Kernel.domains k)
      ()
  in
  Alcotest.(check (list string)) "override removed, warning gone" []
    (List.map
       (fun f -> f.Lint.rule)
       (List.filter (fun f -> f.Lint.rule = "shadowing") report'.Lint.findings))

let () =
  Alcotest.run "pm_journal"
    [
      ( "journal",
        [
          Alcotest.test_case "tail ring wraps" `Quick test_tail_wrap;
          Alcotest.test_case "structural archive survives wrap" `Quick
            test_structural_archive_survives_wrap;
          Alcotest.test_case "full-mode compaction" `Quick test_full_compaction;
          Alcotest.test_case "mode switching" `Quick test_mode_switching;
          Alcotest.test_case "marks" `Quick test_mark;
        ] );
      ( "export",
        [
          Alcotest.test_case "round-trip with gnarly details" `Quick
            test_export_import_roundtrip;
          Alcotest.test_case "import rejects garbage" `Quick
            test_import_rejects_garbage;
          Alcotest.test_case "import rejects trailing input" `Quick
            test_import_rejects_trailing_input;
          Alcotest.test_case "first divergence" `Quick test_first_divergence;
          Alcotest.test_case "rid round-trip" `Quick test_rid_roundtrip;
          Alcotest.test_case "adversarial marks round-trip" `Quick
            test_adversarial_marks_roundtrip;
          Alcotest.test_case "truncated import fails soft" `Quick
            test_truncated_import_fails_soft;
        ] );
      ("properties", props);
      ( "service",
        [
          Alcotest.test_case "cross-domain /nucleus/journal" `Quick
            test_journal_service_cross_domain;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit" `Quick test_txn_commit;
          Alcotest.test_case "rollback at every step" `Quick
            test_txn_rollback_each_step;
        ] );
      ( "replay",
        [
          Alcotest.test_case "all scenarios reproduce" `Quick
            test_replay_all_scenarios;
          Alcotest.test_case "crashed run replays" `Quick test_replay_crashed_run;
          Alcotest.test_case "file round-trip and tamper detection" `Quick
            test_recording_roundtrip_and_tamper;
          Alcotest.test_case "bisect narrows a divergence" `Quick
            test_bisect_narrows_divergence;
        ] );
      ( "history-lint",
        [
          Alcotest.test_case "replayed runs lint clean" `Quick
            test_history_lint_on_replayed_runs;
          Alcotest.test_case "page-hygiene violation" `Quick
            test_page_hygiene_violation;
          Alcotest.test_case "shadowing warning" `Quick test_shadowing_warning;
        ] );
    ]

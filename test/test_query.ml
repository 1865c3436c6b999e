(* Tests for Pm_query: the causal fold from a traced journal into
   per-request span trees with per-layer attribution and critical-path
   extraction, its fail-soft behaviour on damaged histories, the
   state-at-cycle folds over the structural archive, and the
   /nucleus/query service that exports both cross-domain. *)

open Paramecium

let contains s sub =
  let slen = String.length sub in
  let rec go i =
    i + slen <= String.length s && (String.sub s i slen = sub || go (i + 1))
  in
  go 0

(* Run [f] with tracing on and a fresh rid mint, restoring the global
   trace register after — the tests share one process. *)
let with_tracing f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let record j ~kind ~at ?(domain = 1) ?(info = 0) ?(detail = "") () =
  Journal.record j ~kind ~domain ~at ~info ~detail

(* --- the causal fold ----------------------------------------------------- *)

(* One hand-built request: 120 cycles end to end, a kv span holding a
   log span, a 50-cycle device wait inside the log span, one note.

       100 begin .. 110 [kv .. 120 [log .. 130 dma 180 .. 190] .. 200] .. 220 end

   Attribution must telescope exactly: net 30 (outside kv), kv 20
   (90 inclusive - 70 log), log 20 (70 - 50 media), media 50. *)
let build_request j =
  let rid = Journal.req_begin j ~domain:1 ~at:100 ~detail:"get k" in
  record j ~kind:Journal.Span_enter ~at:110 ~detail:"kv" ();
  record j ~kind:Journal.Trace_note ~at:112 ~detail:"cache miss k" ();
  record j ~kind:Journal.Span_enter ~at:120 ~detail:"log" ();
  record j ~kind:Journal.Blk_issue ~at:130 ~info:7 ~domain:0 ();
  record j ~kind:Journal.Blk_complete ~at:180 ~info:7 ~domain:0 ();
  record j ~kind:Journal.Span_exit ~at:190 ~detail:"log" ();
  record j ~kind:Journal.Span_exit ~at:200 ~detail:"kv" ();
  Journal.req_end j ~domain:1 ~at:220 rid;
  rid

let test_fold_builds_span_tree () =
  with_tracing (fun () ->
      let j = Journal.create () in
      Journal.set_mode j Journal.Full;
      let rid = build_request j in
      match Query.fold ~complete:true (Journal.history j) with
      | Error e -> Alcotest.fail e
      | Ok [ r ] ->
        Alcotest.(check int) "rid" rid r.Query.rid;
        Alcotest.(check string) "label is the ingress detail" "get k"
          r.Query.label;
        Alcotest.(check int) "duration" 120 (Query.duration r);
        (match r.Query.spans with
        | [ kv ] ->
          Alcotest.(check string) "root span" "kv" kv.Query.layer;
          (match kv.Query.children with
          | [ lg ] ->
            Alcotest.(check string) "nested span" "log" lg.Query.layer;
            Alcotest.(check int) "nested duration" 70 (Query.span_duration lg)
          | kids ->
            Alcotest.failf "expected one kv child, got %d" (List.length kids))
        | spans ->
          Alcotest.failf "expected one top span, got %d" (List.length spans));
        Alcotest.(check bool) "note kept with its cycle" true
          (List.exists
             (fun (at, d, _) -> at = 112 && d = "cache miss k")
             r.Query.notes);
        (match r.Query.media with
        | [ m ] ->
          Alcotest.(check int) "media block" 7 m.Query.block;
          Alcotest.(check int) "media wait" 50
            (m.Query.complete_at - m.Query.issue_at)
        | ms -> Alcotest.failf "expected one media wait, got %d" (List.length ms));
        let attr = Query.attribution r in
        let cycles l = Option.value ~default:0 (List.assoc_opt l attr) in
        Alcotest.(check int) "net exclusive" 30 (cycles "net");
        Alcotest.(check int) "kv exclusive" 20 (cycles "kv");
        Alcotest.(check int) "log exclusive" 20 (cycles "log");
        Alcotest.(check int) "media wait attributed" 50 (cycles "media");
        Alcotest.(check int) "attribution telescopes to the duration"
          (Query.duration r)
          (List.fold_left (fun a (_, n) -> a + n) 0 attr);
        Alcotest.(check (list string))
          "critical path descends to the device"
          [ "kv"; "log"; "media" ] (Query.critical_path r);
        Alcotest.(check bool) "one-line rendering mentions the label" true
          (contains (Query.request_line r) "get k")
      | Ok reqs ->
        Alcotest.failf "expected one request, got %d" (List.length reqs))

let test_fold_fails_soft () =
  (* a truncated history is refused by name, never an exception *)
  (match Query.fold ~complete:false [] with
  | Error e ->
    Alcotest.(check bool) "incomplete history named" true
      (contains e "query: incomplete history")
  | Ok _ -> Alcotest.fail "fold accepted an incomplete history");
  (* a span exit with no matching enter *)
  with_tracing (fun () ->
      let j = Journal.create () in
      Journal.set_mode j Journal.Full;
      let rid = Journal.req_begin j ~domain:1 ~at:10 ~detail:"r" in
      record j ~kind:Journal.Span_exit ~at:20 ~detail:"kv" ();
      Journal.req_end j ~domain:1 ~at:30 rid;
      (match Query.fold ~complete:true (Journal.history j) with
      | Error e ->
        Alcotest.(check bool) "unbalanced exit named" true
          (contains e "unbalanced span")
      | Ok _ -> Alcotest.fail "fold accepted an exit with no enter"));
  (* a request that ends while a span is still open *)
  with_tracing (fun () ->
      let j = Journal.create () in
      Journal.set_mode j Journal.Full;
      let rid = Journal.req_begin j ~domain:1 ~at:10 ~detail:"r" in
      record j ~kind:Journal.Span_enter ~at:20 ~detail:"kv" ();
      Journal.req_end j ~domain:1 ~at:30 rid;
      match Query.fold ~complete:true (Journal.history j) with
      | Error e ->
        Alcotest.(check bool) "open span at req-end named" true
          (contains e "ended inside span")
      | Ok _ -> Alcotest.fail "fold accepted a request ending inside a span")

let test_fold_ignores_out_of_window_work () =
  with_tracing (fun () ->
      let j = Journal.create () in
      Journal.set_mode j Journal.Full;
      (* traced work with no surrounding request window is ignored *)
      Trace.set_current 99;
      record j ~kind:Journal.Span_enter ~at:5 ~detail:"kv" ();
      record j ~kind:Journal.Span_exit ~at:6 ~detail:"kv" ();
      Trace.clear ();
      (* a request still open at the end of the stream is dropped *)
      ignore (Journal.req_begin j ~domain:1 ~at:10 ~detail:"unfinished");
      match Query.fold ~complete:true (Journal.history j) with
      | Ok [] -> ()
      | Ok reqs ->
        Alcotest.failf "expected no requests, got %d" (List.length reqs)
      | Error e -> Alcotest.fail e)

(* --- the fold against a model ---------------------------------------------- *)

(* A request is a sequence of steps: [Work n] advances the clock n
   cycles, [Wait (block, n)] is an n-cycle device wait on [block], and
   [Span (layer, suffix, steps)] encloses its steps in a span whose
   detail is the layer, or the layer and a word after it, as an
   observability span's is. *)
type step = Work of int | Wait of int * int | Span of string * string * step list

let gen_steps =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [ (3, map (fun n -> Work n) (int_range 0 40));
        (1, map2 (fun b n -> Wait (b, n)) (int_range 0 7) (int_range 1 60)) ]
  in
  let layer = oneofl [ "net"; "kv"; "log"; "cache"; "partition"; "driver"; "proxy" ] in
  let suffix = oneofl [ ""; ""; "echo.echo"; "chan" ] in
  (* spans nest at most [depth] deep *)
  let rec steps depth = list_size (int_range 0 4) (step depth)
  and step depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (1, map3 (fun l sfx kids -> Span (l, sfx, kids)) layer suffix (steps (depth - 1))) ]
  in
  list_size (int_range 1 3) (steps 4)

let rec print_step = function
  | Work n -> Printf.sprintf "work %d" n
  | Wait (b, n) -> Printf.sprintf "wait b%d %d" b n
  | Span (l, sfx, kids) ->
    Printf.sprintf "[%s%s: %s]" l
      (if sfx = "" then "" else " " ^ sfx)
      (String.concat "; " (List.map print_step kids))

let print_requests reqs =
  String.concat "\n"
    (List.map (fun steps -> String.concat "; " (List.map print_step steps)) reqs)

(* Record one request's steps from cycle [at]; returns the cycle after. *)
let rec play j at = function
  | Work n -> at + n
  | Wait (block, n) ->
    record j ~kind:Journal.Blk_issue ~at ~info:block ~domain:0 ();
    record j ~kind:Journal.Blk_complete ~at:(at + n) ~info:block ~domain:0 ();
    at + n
  | Span (layer, sfx, kids) ->
    let detail = if sfx = "" then layer else layer ^ " " ^ sfx in
    record j ~kind:Journal.Span_enter ~at ~detail ();
    let at = List.fold_left (play j) at kids in
    record j ~kind:Journal.Span_exit ~at ~detail ();
    at

(* The model: a layer's exclusive cycles are the work done directly in
   its spans, "net" is the work outside every span, and "media" is every
   device wait. Zero rows are dropped. *)
let model_attribution steps =
  let tally = Hashtbl.create 8 in
  let add l n = Hashtbl.replace tally l (n + Option.value ~default:0 (Hashtbl.find_opt tally l)) in
  let rec walk layer = function
    | Work n -> add layer n
    | Wait (_, n) -> add "media" n
    | Span (l, _, kids) -> List.iter (walk l) kids
  in
  List.iter (walk "net") steps;
  Hashtbl.fold (fun l n acc -> if n = 0 then acc else (l, n) :: acc) tally []
  |> List.sort compare

let prop_attribution_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"attribution telescopes and matches a per-layer model"
       ~print:print_requests gen_steps
       (fun reqs ->
         with_tracing (fun () ->
             let j = Journal.create () in
             Journal.set_mode j Journal.Full;
             (* the requests one after another, 10 idle cycles apart *)
             ignore
               (List.fold_left
                  (fun at steps ->
                    let rid = Journal.req_begin j ~domain:1 ~at ~detail:"req" in
                    let at = List.fold_left (play j) at steps in
                    Journal.req_end j ~domain:1 ~at rid;
                    at + 10)
                  100 reqs);
             match Query.fold ~complete:true (Journal.history j) with
             | Error e -> QCheck2.Test.fail_reportf "fold refused the history: %s" e
             | Ok folded ->
               List.length folded = List.length reqs
               && List.for_all2
                    (fun steps r ->
                      let attr = Query.attribution r in
                      let sum = List.fold_left (fun a (_, n) -> a + n) 0 attr in
                      let layers =
                        List.filter (fun (_, n) -> n <> 0) attr |> List.sort compare
                      in
                      let model = model_attribution steps in
                      if sum <> Query.duration r then
                        QCheck2.Test.fail_reportf "attribution sums to %d, duration %d" sum
                          (Query.duration r)
                      else if layers <> model then
                        QCheck2.Test.fail_reportf "attribution %s, model %s"
                          (Query.attribution_to_text r)
                          (String.concat " "
                             (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) model))
                      else true)
                    reqs folded)))

let test_slowest_and_layer_totals () =
  with_tracing (fun () ->
      let j = Journal.create () in
      Journal.set_mode j Journal.Full;
      let r1 = Journal.req_begin j ~domain:1 ~at:0 ~detail:"fast" in
      Journal.req_end j ~domain:1 ~at:10 r1;
      let r2 = Journal.req_begin j ~domain:1 ~at:20 ~detail:"slow" in
      Journal.req_end j ~domain:1 ~at:120 r2;
      match Query.fold ~complete:true (Journal.history j) with
      | Error e -> Alcotest.fail e
      | Ok reqs ->
        (match Query.slowest 1 reqs with
        | [ r ] -> Alcotest.(check string) "slowest first" "slow" r.Query.label
        | l -> Alcotest.failf "slowest 1 returned %d" (List.length l));
        let totals = Query.layer_totals reqs in
        Alcotest.(check int) "all cycles are net cycles here" 110
          (Option.value ~default:0 (List.assoc_opt "net" totals));
        Alcotest.(check bool) "totals render" true
          (String.length (Query.layer_totals_to_text reqs) > 0))

(* Obs spans are ordinary journal spans: with both Obs and Trace on, a
   request that crosses a proxy and flushes an Rpc_chan batch folds like
   any store request, and the proxy and channel layers get rows. *)
let test_obs_spans_attribute_proxy_and_chan () =
  with_tracing (fun () ->
      let sys = System.create () in
      let k = System.kernel sys in
      let api = Kernel.api k in
      let kdom = Kernel.kernel_domain k and udom = System.new_domain sys "client" in
      let echo =
        Instance.create api.Api.registry ~class_name:"test.echo" ~domain:kdom.Domain.id
          [ Iface.make ~name:"echo"
              [ Iface.meth ~name:"echo" ~args:[ Vtype.Tany ] ~ret:Vtype.Tany
                  (fun _ctx -> function [ v ] -> Ok v | _ -> Error (Oerror.Type_error "echo")) ] ]
      in
      Kernel.register_at k "/svc/echo" echo;
      let proxy = Kernel.bind k udom "/svc/echo" in
      let conn = Rpc_chan.connect api ~client:udom ~server:kdom () in
      Rpc_chan.serve api conn ~procedures:[ ("echo", fun _ctx b -> Ok b) ] ();
      let client = Rpc_chan.client api conn () in
      let clock = System.clock sys in
      let obs = Clock.obs clock in
      let j = Obs.journal obs in
      Journal.set_mode j Journal.Full;
      Obs.enable obs;
      Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
      let ctx = Kernel.ctx k udom in
      let batch =
        Value.List
          (List.init 4 (fun n -> Value.Pair (Value.Str "echo", Value.Blob (Bytes.make 8 (Char.chr (65 + n))))))
      in
      for n = 1 to 2 do
        let rid = Journal.req_begin j ~domain:udom.Domain.id ~at:(Clock.now clock) ~detail:"mixed" in
        ignore (Invoke.call_exn ctx proxy ~iface:"echo" ~meth:"echo" [ Value.Int n ]);
        ignore (Invoke.call_exn ctx client ~iface:"rpc.batch" ~meth:"call_many" [ batch ]);
        Journal.req_end j ~domain:udom.Domain.id ~at:(Clock.now clock) rid
      done;
      Obs.disable obs;
      Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
      match Query.fold ~complete:true (Journal.history j) with
      | Error e -> Alcotest.fail e
      | Ok reqs ->
        Alcotest.(check int) "both requests folded" 2 (List.length reqs);
        List.iter
          (fun r ->
            Alcotest.(check int) "attribution sums to the duration" (Query.duration r)
              (List.fold_left (fun a (_, n) -> a + n) 0 (Query.attribution r)))
          reqs;
        let totals = Query.layer_totals reqs in
        let row l = Option.value ~default:0 (List.assoc_opt l totals) in
        Alcotest.(check bool) "a proxy row" true (row "proxy" > 0);
        Alcotest.(check bool) "a chan row" true (row "chan" > 0))

(* --- state-at-cycle over the structural archive -------------------------- *)

let test_state_at_cycle () =
  let j = Journal.create () in
  (* frame 5: shared into 2 then 3, released by 2 *)
  record j ~kind:Journal.Page_share ~at:10 ~domain:2 ~info:5 ();
  record j ~kind:Journal.Page_share ~at:20 ~domain:3 ~info:5 ();
  record j ~kind:Journal.Page_unshare ~at:30 ~domain:2 ~info:5 ();
  (* /svc/a: bound to 4, interposed by 9, unbound *)
  record j ~kind:Journal.Bind ~at:10 ~domain:0 ~info:4 ~detail:"/svc/a" ();
  record j ~kind:Journal.Interpose ~at:20 ~domain:0 ~info:9
    ~detail:"/svc/a: 4 -> 9" ();
  record j ~kind:Journal.Unbind ~at:30 ~domain:0 ~info:9 ~detail:"/svc/a" ();
  (* component comp: installed for domain 2, later detached *)
  record j ~kind:Journal.Install ~at:10 ~domain:2 ~info:7 ~detail:"comp @ /x" ();
  record j ~kind:Journal.Detach ~at:30 ~domain:2 ~info:7 ~detail:"comp @ /x" ();
  let evs = Journal.structural j in
  Alcotest.(check (list int)) "both domains held frame 5 mid-run" [ 2; 3 ]
    (Query.frame_holders evs ~frame:5 ~at:25);
  Alcotest.(check (list int)) "only 3 after the release" [ 3 ]
    (Query.frame_holders evs ~frame:5 ~at:35);
  Alcotest.(check (list int)) "nobody before the first share" []
    (Query.frame_holders evs ~frame:5 ~at:5);
  Alcotest.(check (option int)) "original binding" (Some 4)
    (Query.bound_at evs ~path:"/svc/a" ~at:15);
  Alcotest.(check (option int)) "interposition swaps the handle" (Some 9)
    (Query.bound_at evs ~path:"/svc/a" ~at:25);
  Alcotest.(check (option int)) "unbound at the end" None
    (Query.bound_at evs ~path:"/svc/a" ~at:35);
  Alcotest.(check (option int)) "unknown path" None
    (Query.bound_at evs ~path:"/nope" ~at:25);
  Alcotest.(check (option int)) "install records the owner" (Some 2)
    (Query.owner_of evs ~name:"comp" ~at:20);
  Alcotest.(check (option int)) "detach forgets it" None
    (Query.owner_of evs ~name:"comp" ~at:40)

(* --- the /nucleus/query service ------------------------------------------ *)

let test_query_service_cross_domain () =
  let sys = System.create () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "inspector" in
  let svc = Kernel.bind k udom "/nucleus/query" in
  Alcotest.(check bool) "cross-domain bind is a proxy" true (Proxy.is_proxy svc);
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  let ctx = Kernel.ctx k udom in
  (* causal queries refuse a tail-mode (incomplete) journal by name *)
  (match Invoke.call ctx svc ~iface:"query" ~meth:"layers" [] with
  | Error (Oerror.Fault m) ->
    Alcotest.(check bool) "fault names the incomplete history" true
      (contains m "incomplete")
  | Ok _ -> Alcotest.fail "layers() answered over a tail-mode journal"
  | Error _ -> Alcotest.fail "layers() failed for the wrong reason");
  (* time-travel queries fold the structural archive and work in any
     mode: boot bound the journal service, so ask who holds that name *)
  let now = Clock.now (System.clock sys) in
  (match
     Invoke.call_exn ctx svc ~iface:"query" ~meth:"bound_at"
       [ Value.Str "/nucleus/journal"; Value.Int now ]
   with
  | Value.Int h -> Alcotest.(check bool) "a live handle answers" true (h >= 0)
  | _ -> Alcotest.fail "bound_at()");
  match
    Invoke.call ctx svc ~iface:"query" ~meth:"bound_at"
      [ Value.Str "/no/such/path"; Value.Int now ]
  with
  | Error (Oerror.Fault m) ->
    Alcotest.(check bool) "missing binding faults by name" true
      (contains m "nothing bound")
  | Ok _ -> Alcotest.fail "bound_at() invented a binding"
  | Error _ -> Alcotest.fail "bound_at() failed for the wrong reason"

(* A traced wire parse inside a store span leaves its own rid ambient;
   the span must still exit under the rid it entered with, or the fold
   pairs the exit with the wrong request. *)
let test_store_span_keeps_enter_rid () =
  with_tracing (fun () ->
      let sys = System.create ~key_bits:384 () in
      let j = Obs.journal (Clock.obs (System.clock sys)) in
      Trace.set_current 1;
      Blockif.traced_span (System.api sys) "cache" (fun () -> Trace.set_current 99);
      match List.rev (Journal.tail j) with
      | exit :: enter :: _ ->
        Alcotest.(check bool) "enter, exit" true
          (enter.Journal.kind = Journal.Span_enter && exit.Journal.kind = Journal.Span_exit);
        Alcotest.(check (pair int int)) "both under rid 1" (1, 1)
          (enter.Journal.rid, exit.Journal.rid)
      | _ -> Alcotest.fail "expected the span's two events")

let () =
  Alcotest.run "pm_query"
    [
      ( "fold",
        [
          Alcotest.test_case "span tree, attribution, critical path" `Quick
            test_fold_builds_span_tree;
          Alcotest.test_case "fails soft on damaged histories" `Quick
            test_fold_fails_soft;
          Alcotest.test_case "ignores out-of-window work" `Quick
            test_fold_ignores_out_of_window_work;
          prop_attribution_matches_model;
          Alcotest.test_case "slowest and layer totals" `Quick
            test_slowest_and_layer_totals;
          Alcotest.test_case "obs spans attribute proxy and chan" `Quick
            test_obs_spans_attribute_proxy_and_chan;
          Alcotest.test_case "store span keeps its enter rid" `Quick
            test_store_span_keeps_enter_rid;
        ] );
      ( "state-at-cycle",
        [ Alcotest.test_case "frame / binding / owner" `Quick test_state_at_cycle ] );
      ( "service",
        [
          Alcotest.test_case "cross-domain /nucleus/query" `Quick
            test_query_service_cross_domain;
        ] );
    ]

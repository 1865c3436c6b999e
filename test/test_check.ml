(* Tests for Pm_check: the load-time bytecode verifier, the interface
   subsumption checker, the whole-system composition linter, and their
   wiring into the loader and /nucleus/check. *)

open Paramecium

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let compile_exn src =
  match Filterc.compile_string src with Ok p -> p | Error e -> failwith e

(* --- verifier: acceptance ---------------------------------------------- *)

let test_verify_accepts_filters () =
  List.iter
    (fun src ->
      let p = compile_exn src in
      match Verify.verify p with
      | Verify.Verified { instrs; fuel } ->
        Alcotest.(check int)
          (src ^ ": instrs = program length")
          (Array.length p) instrs;
        Alcotest.(check int)
          (src ^ ": straight-line filters need no per-length fuel")
          0 fuel.Verify.per_len;
        Alcotest.(check bool)
          (src ^ ": fuel bound within the VM default")
          true
          (fuel.Verify.fixed <= Verify.default_fuel)
      | Verify.Rejected _ as v ->
        Alcotest.failf "%s: %s" src (Verify.verdict_to_string v))
    [
      "byte[19] == 7 && byte[18] == 0";
      "byte[0] == 1";
      "word[4] == 136 && byte[10] < 50";
      "byte[2] != 0 || byte[3] >= 9";
      "len > 20";
    ]

(* the whole filter language verifies: the compiler's bounds-bracketed
   load pattern is exactly what the abstract domain was built to follow *)
let gen_filter_expr =
  let open QCheck2.Gen in
  let base =
    oneof
      [ map (fun n -> Filterc.Lit n) (int_bound 300); return Filterc.Len;
        map (fun i -> Filterc.Byte (Filterc.Lit i)) (int_range (-4) 40) ]
  in
  let op =
    oneofl
      [ Filterc.Add; Filterc.Sub; Filterc.Mul; Filterc.Band; Filterc.Bxor;
        Filterc.Eq; Filterc.Ne; Filterc.Lt; Filterc.Le; Filterc.Gt; Filterc.Ge;
        Filterc.Andalso; Filterc.Orelse ]
  in
  let level1 = oneof [ base; map3 (fun o a b -> Filterc.Bin (o, a, b)) op base base ] in
  oneof
    [
      level1;
      map3 (fun o a b -> Filterc.Bin (o, a, b)) op level1 base;
      map3 (fun c t e -> Filterc.If (c, t, e)) base level1 level1;
    ]

let verifier_accepts_compiler_prop =
  prop "everything Filterc emits verifies" gen_filter_expr (fun e ->
      match Filterc.compile e with
      | Error _ -> true (* too deep: fine *)
      | Ok program -> Verify.ok (Verify.verify program))

(* loop-bearing filters: a [sum] must verify with a fuel bound that is
   genuinely affine in L, and running under exactly that bound must
   complete *)
let gen_loop_filter_expr =
  let open QCheck2.Gen in
  let bound =
    oneof
      [ map (fun n -> Filterc.Lit n) (int_bound 80); return Filterc.Len;
        map (fun i -> Filterc.Byte (Filterc.Lit i)) (int_range (-4) 40) ]
  in
  (* the loop owns r2..r4, so bodies are leaves in r5 (deeper nesting is
     a compile-time Too_deep, covered by the plain compiler prop) *)
  let body =
    oneof
      [ return (Filterc.Byte Filterc.Idx); return Filterc.Idx;
        map (fun n -> Filterc.Lit n) (int_bound 9);
        map (fun i -> Filterc.Byte (Filterc.Lit i)) (int_range (-4) 40);
        return Filterc.Len ]
  in
  let loop = map3 (fun lo hi b -> Filterc.For (lo, hi, b)) bound bound body in
  let op = oneofl [ Filterc.Add; Filterc.Band; Filterc.Eq; Filterc.Ne; Filterc.Lt; Filterc.Ge ] in
  oneof [ loop; map3 (fun o l r -> Filterc.Bin (o, l, r)) op loop bound ]

let verifier_accepts_loops_prop =
  prop "every sum filter verifies with an affine bound"
    QCheck2.Gen.(pair gen_loop_filter_expr (string_size (int_range 0 64)))
    (fun (e, pkt_str) ->
      match Filterc.compile e with
      | Error _ -> false (* outermost single sums always compile *)
      | Ok program -> (
        match Verify.verify program with
        | Verify.Rejected _ -> false
        | Verify.Verified { fuel; _ } ->
          let clock = Clock.create () in
          let ctx = Call_ctx.make ~clock ~costs:Cost.unit_costs ~caller_domain:0 in
          let mem = Vm.mem_of_bytes (Bytes.of_string pkt_str) in
          let fuel = Verify.fuel_for fuel ~len:(String.length pkt_str) in
          (match Vm.run ctx ~fuel ~mem program with
          | Vm.Returned _ -> true
          | Vm.Vm_fault _ | Vm.Wild_access _ -> false)))

(* --- verifier: rejection ----------------------------------------------- *)

let reject what program =
  match Verify.verify program with
  | Verify.Rejected { reason; _ } -> reason
  | Verify.Verified _ -> Alcotest.failf "%s: must be rejected" what

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_reason what sub program =
  let reason = reject what program in
  Alcotest.(check bool)
    (Printf.sprintf "%s: reason %S mentions %S" what reason sub)
    true (contains reason sub)

let test_verify_rejections () =
  (* store provably past the window: r2 = 99 but L <= MTU is unknown *)
  check_reason "out-of-window store" "window"
    [| Vm.Const (2, 99); Vm.Store8 (0, 2, 0); Vm.Ret 0 |];
  (* load below the window *)
  check_reason "negative load" "window"
    [| Vm.Const (2, -1); Vm.Load8 (3, 2, 0); Vm.Ret 3 |];
  (* unbracketed load: r1 = L is exactly one past the last byte *)
  check_reason "load at L" "window" [| Vm.Load8 (2, 1, 0); Vm.Ret 2 |];
  (* wild jump *)
  check_reason "wild jump" "jump out of program" [| Vm.Jmp 10; Vm.Ret 0 |];
  (* backward jump (would make the CFG cyclic) *)
  check_reason "backward jump" "backward" [| Vm.Const (2, 1); Vm.Jmp 1; Vm.Ret 2 |];
  (* reserved-register clobber *)
  check_reason "r6 clobber" "reserved" [| Vm.Const (6, 0); Vm.Ret 0 |];
  check_reason "r7 read" "reserved" [| Vm.Mov (2, 7); Vm.Ret 2 |];
  (* falling off the end *)
  check_reason "fall off" "fall" [| Vm.Const (2, 1) |];
  (* empty program *)
  check_reason "empty" "empty" [||];
  (* fuel: more instructions than the allowance *)
  (match Verify.verify ~fuel:2 [| Vm.Const (2, 0); Vm.Const (3, 0); Vm.Ret 2 |] with
  | Verify.Rejected _ -> ()
  | Verify.Verified _ -> Alcotest.fail "fuel overrun must be rejected");
  (* a branch-refined program that stays in bounds still verifies: the
     Filterc bracket pattern written by hand *)
  match
    Verify.verify
      [|
        Vm.Const (2, 3);
        Vm.Jlt (2, 0, 4) (* 3 < 0 ? never *);
        Vm.Jlt (2, 1, 5) (* 3 < L ? *);
        Vm.Ret 0;
        Vm.Ret 0;
        Vm.Load8 (3, 2, 0);
        Vm.Ret 3;
      |]
  with
  | Verify.Verified _ -> ()
  | Verify.Rejected _ as v ->
    Alcotest.failf "bracketed load must verify: %s" (Verify.verdict_to_string v)

(* --- verifier: loops --------------------------------------------------- *)

let run_fueled ~pkt ~fuel program =
  let clock = Clock.create () in
  let ctx = Call_ctx.make ~clock ~costs:Cost.unit_costs ~caller_domain:0 in
  Vm.run ctx ~fuel ~mem:(Vm.mem_of_bytes pkt) program

let expect_loop_verified what program =
  match Verify.verify program with
  | Verify.Verified { fuel; _ } ->
    Alcotest.(check bool)
      (what ^ ": fuel bound is genuinely per-length")
      true (fuel.Verify.per_len >= 1);
    (* the proven bound suffices at several window sizes, including 0 *)
    List.iter
      (fun len ->
        let pkt = Bytes.make len 'x' in
        match run_fueled ~pkt ~fuel:(Verify.fuel_for fuel ~len) program with
        | Vm.Returned _ -> ()
        | Vm.Wild_access _ | Vm.Vm_fault _ ->
          Alcotest.failf "%s: faulted within its proven bound (len %d)" what len)
      [ 0; 1; 32; 255 ]
  | Verify.Rejected _ as v ->
    Alcotest.failf "%s: %s" what (Verify.verdict_to_string v)

let test_verify_loop_acceptance () =
  (* canonical up-count: i from 0 while i < L, step 1 *)
  expect_loop_verified "up-count"
    [|
      Vm.Const (2, 0); Vm.Const (3, 0); Vm.Jlt (2, 1, 4); Vm.Ret 3;
      Vm.Const (4, 1); Vm.Add (2, 2, 4); Vm.Jlt (2, 1, 4); Vm.Ret 3;
    |];
  (* canonical down-count: i from L to 0, pre-guarded against L = 0 *)
  expect_loop_verified "down-count"
    [|
      Vm.Mov (2, 1); Vm.Jz (2, 5); Vm.Const (4, -1); Vm.Add (2, 2, 4);
      Vm.Jnz (2, 2); Vm.Ret 0;
    |];
  (* a scan that actually loads every byte in the window *)
  expect_loop_verified "byte scan"
    [|
      Vm.Const (2, 0); Vm.Const (3, 0); Vm.Jlt (2, 1, 4); Vm.Ret 3;
      Vm.Load8 (5, 2, 0); Vm.Add (3, 3, 5); Vm.Const (4, 1);
      Vm.Add (2, 2, 4); Vm.Jlt (2, 1, 4); Vm.Ret 3;
    |];
  (* the compiled sum construct end to end *)
  match Filterc.compile_string "sum[0 .. len](byte[idx]) & 255 == 73" with
  | Error e -> Alcotest.failf "sum filter: %s" e
  | Ok p -> expect_loop_verified "sum filter" p

let test_verify_loop_rejections () =
  (* no induction register advances: spins forever *)
  check_reason "stuck spin" "constant step"
    [| Vm.Const (2, 1); Vm.Jnz (2, 1); Vm.Ret 0 |];
  (* doubling is not a constant step (and 0 doubles to 0 forever) *)
  check_reason "doubling step" "constant step"
    [|
      Vm.Const (2, 0); Vm.Jlt (2, 1, 3); Vm.Ret 0; Vm.Add (2, 2, 2);
      Vm.Jlt (2, 1, 3); Vm.Ret 0;
    |];
  (* the increment sits behind a branch: some iterations skip it *)
  check_reason "skippable step" "skipped"
    [|
      Vm.Const (2, 0); Vm.Mov (3, 1); Vm.Jlt (2, 1, 4); Vm.Ret 0;
      Vm.Const (4, 1); Vm.Jz (3, 7); Vm.Add (2, 2, 4); Vm.Jlt (2, 1, 4);
      Vm.Ret 0;
    |];
  (* down-count entering at 0: tested at -1, never exits *)
  check_reason "countdown from zero" "enter at or below zero"
    [|
      Vm.Const (2, 0); Vm.Const (4, -1); Vm.Add (2, 2, 4); Vm.Jnz (2, 2);
      Vm.Ret 0;
    |];
  (* down-count from L without a zero pre-guard: L may be 0 *)
  check_reason "unguarded countdown" "enter at or below zero"
    [|
      Vm.Mov (2, 1); Vm.Const (4, -1); Vm.Add (2, 2, 4); Vm.Jnz (2, 2);
      Vm.Ret 0;
    |];
  (* loop-carried out-of-window access: byte[i + 1] reads byte[L] on the
     last trip *)
  check_reason "loop-carried overrun" "window"
    [|
      Vm.Const (2, 0); Vm.Jlt (2, 1, 3); Vm.Ret 0; Vm.Load8 (3, 2, 1);
      Vm.Const (4, 1); Vm.Add (2, 2, 4); Vm.Jlt (2, 1, 3); Vm.Ret 0;
    |];
  (* backward Jmp: no exit test at all *)
  check_reason "backward jmp loop" "backward"
    [| Vm.Const (2, 0); Vm.Jmp 1; Vm.Ret 0 |]

(* crafted attacks on the analysis itself: each used to hang or overflow
   a naive interval implementation; all must resolve finitely and
   soundly *)
let test_verify_pathological () =
  (* Or on a near-max bound: bits_mask must saturate instead of doubling
     past max_int (2^61 - 2^30 here; the old doubling overflowed) *)
  (match
     Verify.verify
       [| Vm.Const (2, 0x7FFFFFFF); Vm.Shl (3, 2, 30); Vm.Or (4, 3, 3); Vm.Ret 4 |]
   with
  | Verify.Verified _ -> ()
  | Verify.Rejected _ as v ->
    Alcotest.failf "saturating Or program must verify: %s"
      (Verify.verdict_to_string v));
  Alcotest.(check int) "bits_mask saturates at max_int" max_int
    (Verify.bits_mask max_int max_int);
  Alcotest.(check int) "bits_mask saturates above max_int/2" max_int
    (Verify.bits_mask ((max_int lsr 1) + 1) 0);
  Alcotest.(check int) "bits_mask small" 7 (Verify.bits_mask 5 2);
  (* Shl wrap: {0,1} lsl 62 is {0, min_int} on a 63-bit VM — an interval
     that silently wraps claims [0, 2^62] and admits the load *)
  check_reason "shl wrap" "window"
    [|
      Vm.Jz (1, 3); Vm.Const (2, 1); Vm.Jmp 4; Vm.Const (2, 0);
      Vm.Shl (3, 2, 62); Vm.Load8 (5, 3, 0); Vm.Ret 5;
    |];
  (* Mul wrap: squaring [2^17, 2^47-ish] passes 2^62 and wraps; the
     interval must widen to top, not invert *)
  check_reason "mul wrap" "window"
    [|
      Vm.Jz (1, 3); Vm.Const (2, 0x7FFFFFFF); Vm.Jmp 4; Vm.Const (2, 2);
      Vm.Shl (2, 2, 16); Vm.Mul (3, 2, 2); Vm.Load8 (5, 3, 0); Vm.Ret 5;
    |]

(* --- verifier: soundness ----------------------------------------------- *)

let gen_instr =
  QCheck2.Gen.(
    let reg = int_bound 7 in
    let imm = int_range (-1000) 1000 in
    oneof
      [
        map2 (fun r i -> Vm.Const (r, i)) reg imm;
        map2 (fun a b -> Vm.Mov (a, b)) reg reg;
        map3 (fun a b c -> Vm.Add (a, b, c)) reg reg reg;
        map3 (fun a b c -> Vm.Sub (a, b, c)) reg reg reg;
        map3 (fun a b c -> Vm.Load8 (a, b, c)) reg reg (int_bound 64);
        map3 (fun a b c -> Vm.Store8 (a, b, c)) reg reg (int_bound 64);
        map3 (fun a b c -> Vm.Mul (a, b, c)) reg reg reg;
        map3 (fun a b c -> Vm.And (a, b, c)) reg reg reg;
        map3 (fun a b c -> Vm.Or (a, b, c)) reg reg reg;
        map3 (fun a b k -> Vm.Shl (a, b, k)) reg reg (int_bound 63);
        map3 (fun a b k -> Vm.Shr (a, b, k)) reg reg (int_bound 63);
        map (fun t -> Vm.Jmp t) (int_bound 30);
        map2 (fun r t -> Vm.Jz (r, t)) reg (int_bound 30);
        map2 (fun r t -> Vm.Jnz (r, t)) reg (int_bound 30);
        map3 (fun a b t -> Vm.Jlt (a, b, t)) reg reg (int_bound 30);
        map (fun r -> Vm.Ret r) reg;
      ])

(* A Verified verdict is a guarantee about the concrete run: no wild
   access, no control-flow fault, no fuel exhaustion — division by zero
   is the one contained fault the verifier deliberately permits. *)
let verifier_soundness_prop =
  prop "verified programs run clean"
    QCheck2.Gen.(
      pair
        (map Array.of_list (list_size (int_range 1 40) gen_instr))
        (string_size (int_range 1 48)))
    (fun (program, pkt_str) ->
      match Verify.verify program with
      | Verify.Rejected _ -> true
      | Verify.Verified { fuel; _ } ->
        let clock = Clock.create () in
        let ctx = Call_ctx.make ~clock ~costs:Cost.unit_costs ~caller_domain:0 in
        let mem = Vm.mem_of_bytes (Bytes.of_string pkt_str) in
        let fuel = Verify.fuel_for fuel ~len:(String.length pkt_str) in
        (match Vm.run ctx ~fuel ~mem program with
        | Vm.Returned _ -> true
        | Vm.Vm_fault "division by zero" -> true
        | Vm.Vm_fault _ | Vm.Wild_access _ -> false))

(* --- loader wiring: the third trust class ------------------------------ *)

let bytecode_image ~name ~author code =
  let base =
    Images.image ~name ~size:(String.length code) ~author (fun api dom ->
        Instance.create api.Api.registry ~class_name:("verified." ^ name)
          ~domain:dom.Domain.id [])
  in
  { base with Loader.code }

let test_verified_load () =
  let sys = System.create () in
  let certsvc = Kernel.certification (System.kernel sys) in
  let good = Vm.encode (compile_exn "byte[19] == 7") in
  (* unsigned, untrusted author — only the static proof admits it *)
  (match
     System.install sys
       (bytecode_image ~name:"goodfilter" ~author:"anyone" good)
       ~placement:System.Verified ~at:"/services/goodfilter"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "verified load failed: %s" e);
  Alcotest.(check int) "one verification" 1 (Certsvc.verifications certsvc);
  (* unverifiable bytecode with no certificate and no sandbox is refused *)
  let bad = Vm.encode [| Vm.Const (2, 99); Vm.Store8 (0, 2, 0); Vm.Ret 0 |] in
  (match
     System.install sys
       (bytecode_image ~name:"badfilter" ~author:"anyone" bad)
       ~placement:System.Verified ~at:"/services/badfilter"
   with
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names verification" e)
      true (contains e "verification")
  | Ok _ -> Alcotest.fail "out-of-window store must not load");
  Alcotest.(check int) "one rejection" 1 (Certsvc.verify_failures certsvc);
  (* charging: verification advanced the clock per instruction *)
  let clock = System.clock sys in
  let before = Clock.now clock in
  ignore (Certsvc.verify certsvc ~code:good);
  let spent = Clock.now clock - before in
  let expected =
    match Vm.decode good with
    | Ok p -> Array.length p * Cost.default.Cost.verify_instr
    | Error e -> failwith e
  in
  Alcotest.(check int) "verify cost charged per instruction" expected spent

(* a Verified install leaves its proven bound behind for the run path *)
let test_verified_fuel_recorded () =
  let sys = System.create () in
  let loopy = Vm.encode (compile_exn "sum[0 .. len](byte[idx]) == 0") in
  (match
     System.install sys
       (bytecode_image ~name:"scanner" ~author:"anyone" loopy)
       ~placement:System.Verified ~at:"/services/scanner"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "loop filter must load Verified: %s" e);
  (match System.verified_fuel sys "scanner" with
  | Some fb ->
    Alcotest.(check bool) "per-length bound recorded" true (fb.Verify.per_len >= 1);
    Alcotest.(check bool) "fuel grows with the window" true
      (Verify.fuel_for fb ~len:256 > Verify.fuel_for fb ~len:16)
  | None -> Alcotest.fail "verified install must record its fuel bound");
  (* a placement that never ran the verifier records nothing *)
  let straight = Vm.encode (compile_exn "byte[0] == 1") in
  (match
     System.install sys
       (bytecode_image ~name:"plain" ~author:"anyone" straight)
       ~placement:System.Sandboxed ~at:"/services/plain"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sandboxed load: %s" e);
  Alcotest.(check bool) "sandboxed install records no bound" true
    (System.verified_fuel sys "plain" = None)

(* --- subsumption and Interpose enforcement ----------------------------- *)

let test_attach_superset_enforced () =
  let sys = System.create () in
  let k = System.kernel sys in
  let api = System.api sys in
  let kdom = Kernel.kernel_domain k in
  let net =
    System.setup_networking sys ~placement:System.Certified ~addr:42 ()
  in
  (* a proper superset (forwarders for everything + monitor) attaches *)
  let agent = Interpose.packet_monitor api kdom ~target:net.System.driver in
  (match Interpose.attach api ~path:"/services/netdrv" ~agent with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "superset agent must attach: %s" e);
  (* an agent missing the target's interfaces raises Not_superset *)
  let impostor =
    Instance.create api.Api.registry ~class_name:"impostor"
      ~domain:kdom.Domain.id
      [ Iface.make ~name:"monitor" [] ]
  in
  (match Interpose.attach api ~path:"/services/stack" ~agent:impostor with
  | exception Oerror.Error (Oerror.Not_superset detail) ->
    Alcotest.(check bool)
      (Printf.sprintf "detail %S names the missing interface" detail)
      true (contains detail "stack")
  | Ok _ -> Alcotest.fail "non-superset agent must be refused"
  | Error e -> Alcotest.failf "expected Not_superset, got path error %s" e);
  (* the refused attach swapped nothing: the stack still answers *)
  let ctx = Kernel.ctx k kdom in
  match
    Invoke.call ctx (Kernel.bind k kdom "/services/stack") ~iface:"stack"
      ~meth:"bind_port" [ Value.Int 7 ]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "stack broken after refused attach: %s" (Oerror.to_string e)

(* a narrowed method signature is not a superset either *)
let test_subsume_method_mismatch () =
  let sys = System.create () in
  let api = System.api sys in
  let kdom = Kernel.kernel_domain (System.kernel sys) in
  let impl _ctx _args = Ok Value.Unit in
  let mk name meths =
    Instance.create api.Api.registry ~class_name:name ~domain:kdom.Domain.id
      [ Iface.make ~name:"svc" meths ]
  in
  let wrapped =
    mk "orig"
      [ Iface.meth ~name:"put" ~args:[ Vtype.Tint; Vtype.Tblob ] ~ret:Vtype.Tunit impl ]
  in
  let narrowed =
    mk "narrowed"
      [ Iface.meth ~name:"put" ~args:[ Vtype.Tint ] ~ret:Vtype.Tunit impl ]
  in
  (match Subsume.check_instances ~wrapped ~agent:narrowed with
  | Error detail ->
    Alcotest.(check bool) "arity mismatch reported" true (contains detail "put")
  | Ok () -> Alcotest.fail "narrowed arity must fail subsumption");
  let widened =
    mk "widened"
      [
        Iface.meth ~name:"put" ~args:[ Vtype.Tint; Vtype.Tblob ] ~ret:Vtype.Tunit impl;
        Iface.meth ~name:"extra" ~args:[] ~ret:Vtype.Tint impl;
      ]
  in
  match Subsume.check_instances ~wrapped ~agent:widened with
  | Ok () -> ()
  | Error e -> Alcotest.failf "superset with extra method must pass: %s" e

(* --- the composition linter -------------------------------------------- *)

let lint_errors sys =
  Lint.errors (Check_svc.run (System.check sys))

let rules_of findings = List.sort_uniq compare (List.map (fun f -> f.Lint.rule) findings)

let test_lint_clean_system () =
  let sys = System.create () in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  ignore (System.channel_rx sys net ());
  Alcotest.(check (list string)) "no errors" [] (rules_of (lint_errors sys))

let test_lint_spsc_violation () =
  let sys = System.create () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let udom = System.new_domain sys "rogue" in
  let chan =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~name:"abused" ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  let mmu = Machine.mmu (Kernel.machine k) in
  let home = Mmu.current_context mmu in
  ignore (Chan.try_send chan (Bytes.of_string "a"));
  Mmu.switch_context mmu udom.Domain.id;
  ignore (Chan.try_send chan (Bytes.of_string "b"));
  Mmu.switch_context mmu home;
  Alcotest.(check (list string)) "spsc caught" [ "spsc" ] (rules_of (lint_errors sys))

(* the MPSC-aware refinement: distinct producers on distinct sub-rings
   are the sanctioned shape; a context on someone else's sub-ring is
   flagged with the group named *)
let test_lint_mpsc_groups () =
  let sys = System.create () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let p2 = System.new_domain sys "second-producer" in
  let cons = System.new_domain sys "mpsc-consumer" in
  let g =
    Mpsc.create (Kernel.machine k) (Kernel.vmem k) ~name:"lintg" ~mode:Chan.Poll
      ~consumer:cons ()
  in
  let t1 = Mpsc.attach g ~producer:kdom in
  let t2 = Mpsc.attach g ~producer:p2 in
  let mmu = Machine.mmu (Kernel.machine k) in
  let home = Mmu.current_context mmu in
  ignore (Mpsc.try_send t1 (Bytes.of_string "a"));
  Mmu.switch_context mmu p2.Domain.id;
  ignore (Mpsc.try_send t2 (Bytes.of_string "b"));
  Mmu.switch_context mmu home;
  Alcotest.(check (list string)) "distinct sub-rings pass" []
    (rules_of (lint_errors sys));
  (* now p2 enqueues on t1's sub-ring: an ownership violation *)
  Mmu.switch_context mmu p2.Domain.id;
  ignore (Chan.try_send (Mpsc.sub_ring t1) (Bytes.of_string "intruder"));
  Mmu.switch_context mmu home;
  let errs = lint_errors sys in
  Alcotest.(check (list string)) "intruder caught" [ "spsc" ] (rules_of errs);
  Alcotest.(check bool) "finding names the group" true
    (List.exists (fun f -> contains f.Lint.detail "lintg") errs)

let test_lint_wait_cycle () =
  let sys = System.create () in
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
  (* both sides block receiving from the other before sending anything:
     the classic crossed request/reply deadlock *)
  let sched = Kernel.sched k in
  ignore
    (Scheduler.spawn sched ~name:"a" ~domain:kdom.Domain.id (fun () ->
         ignore (Chan.recv chan_ba)));
  ignore
    (Scheduler.spawn sched ~name:"b" ~domain:udom.Domain.id (fun () ->
         ignore (Chan.recv chan_ab)));
  ignore (Scheduler.run sched ());
  Alcotest.(check (list string)) "deadlock caught" [ "wait-cycle" ]
    (rules_of (lint_errors sys))

let test_lint_dangling_and_dead_handler () =
  let sys = System.create () in
  let k = System.kernel sys in
  (* dangling: a bound instance revoked behind the namespace's back *)
  let api = System.api sys in
  let kdom = Kernel.kernel_domain k in
  let orphan =
    Instance.create api.Api.registry ~class_name:"orphan" ~domain:kdom.Domain.id []
  in
  Kernel.register_at k "/services/orphan" orphan;
  Instance.revoke orphan;
  (* dead-handler: a call-back whose domain died without the kernel's
     clean-up (simulated by flipping the liveness bit directly) *)
  let ghost = System.new_domain sys "ghost" in
  ignore (Events.register (Kernel.events k) (Events.Trap 33) ~domain:ghost (fun _ -> ()));
  ghost.Domain.alive <- false;
  Alcotest.(check (list string)) "both caught" [ "dangling"; "dead-handler" ]
    (rules_of (lint_errors sys))

(* seeded failure: both storage-stack inversions — a write-back cache
   stacked above the append-only log, and a partition windowing a cache
   (the cache below its partition). The factory's own stack must lint
   clean first. *)
let test_lint_store_order () =
  let sys = System.create () in
  let k = System.kernel sys in
  ignore (System.setup_store sys ~placement:System.Certified ());
  Alcotest.(check (list string)) "factory stack is clean" []
    (rules_of (lint_errors sys));
  let api = System.api sys in
  let kdom = Kernel.kernel_domain k in
  ignore
    (Block_cache.create api kdom ~name:"bad-cache" ~lower:"/store/log0"
       ~capacity:4 ());
  ignore
    (Partition.create api kdom ~name:"bad-part" ~lower:"/store/cache0" ~base:0
       ~count:8 ());
  let errs = lint_errors sys in
  Alcotest.(check (list string)) "both inversions caught" [ "store-order" ]
    (rules_of errs);
  Alcotest.(check int) "one finding per inversion" 2 (List.length errs)

(* seeded failure: /store endpoints left dangling — one component
   revoked behind the binding's back (no detach), one marked detached
   without its endpoint ever being unbound. *)
let test_lint_store_dangling () =
  let sys = System.create () in
  let k = System.kernel sys in
  ignore (System.setup_store sys ~placement:System.Certified ());
  let machine = Kernel.machine k in
  (match Storereg.find ~machine "cache0" with
  | Some e -> Instance.revoke e.Storereg.instance
  | None -> Alcotest.fail "cache0 not registered");
  (match Storereg.find ~machine "log0" with
  | Some e -> Storereg.mark_detached e
  | None -> Alcotest.fail "log0 not registered");
  let errs = lint_errors sys in
  Alcotest.(check bool) "store-dangling caught" true
    (List.mem "store-dangling" (rules_of errs));
  Alcotest.(check int) "one finding per dangle" 2
    (List.length (List.filter (fun f -> f.Lint.rule = "store-dangling") errs))

(* --- /nucleus/check: the service object, cross-domain ------------------ *)

let test_check_service_cross_domain () =
  let sys = System.create () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "auditor" in
  let proxy = Kernel.bind k udom "/nucleus/check" in
  let ctx = Kernel.ctx k udom in
  (match Invoke.call_exn ctx proxy ~iface:"check" ~meth:"run" [] with
  | Value.Int 0 -> ()
  | v -> Alcotest.failf "clean system must lint clean, got %s" (Value.to_string v));
  (match Invoke.call_exn ctx proxy ~iface:"check" ~meth:"report" [] with
  | Value.Str s ->
    Alcotest.(check bool) "report mentions the rules" true (contains s "rules")
  | v -> Alcotest.failf "report: %s" (Value.to_string v));
  (match Invoke.call_exn ctx proxy ~iface:"check" ~meth:"explain" [ Value.Str "spsc" ] with
  | Value.Str s -> Alcotest.(check bool) "explain is prose" true (String.length s > 10)
  | v -> Alcotest.failf "explain: %s" (Value.to_string v));
  Alcotest.(check int) "runs counted" 1 (Check_svc.runs (System.check sys));
  (* findings land in the flight recorder *)
  let flight = Journal.flight (Obs.journal (Clock.obs (System.clock sys))) in
  let seen = List.exists (fun ev -> ev.Journal.kind = Journal.Check) flight in
  Alcotest.(check bool) "check recorded in the flight recorder" true seen

let () =
  Alcotest.run "check"
    [
      ( "verify",
        [
          Alcotest.test_case "accepts shipped filters" `Quick
            test_verify_accepts_filters;
          Alcotest.test_case "rejections" `Quick test_verify_rejections;
          Alcotest.test_case "loop acceptance" `Quick test_verify_loop_acceptance;
          Alcotest.test_case "loop rejections" `Quick test_verify_loop_rejections;
          Alcotest.test_case "pathological programs" `Quick
            test_verify_pathological;
          verifier_accepts_compiler_prop;
          verifier_accepts_loops_prop;
          verifier_soundness_prop;
        ] );
      ( "loader",
        [
          Alcotest.test_case "verified trust class" `Quick test_verified_load;
          Alcotest.test_case "fuel bound recorded" `Quick
            test_verified_fuel_recorded;
        ] );
      ( "subsume",
        [
          Alcotest.test_case "attach enforces superset" `Quick
            test_attach_superset_enforced;
          Alcotest.test_case "method compatibility" `Quick
            test_subsume_method_mismatch;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean system" `Quick test_lint_clean_system;
          Alcotest.test_case "spsc violation" `Quick test_lint_spsc_violation;
          Alcotest.test_case "mpsc groups" `Quick test_lint_mpsc_groups;
          Alcotest.test_case "wait cycle" `Quick test_lint_wait_cycle;
          Alcotest.test_case "dangling + dead handler" `Quick
            test_lint_dangling_and_dead_handler;
          Alcotest.test_case "store order (seeded)" `Quick test_lint_store_order;
          Alcotest.test_case "store dangling (seeded)" `Quick
            test_lint_store_dangling;
        ] );
      ( "service",
        [
          Alcotest.test_case "/nucleus/check cross-domain" `Quick
            test_check_service_cross_domain;
        ] );
    ]

(* Tests for the downloaded-code substrate: the bytecode VM, the SFI
   rewriter, the trusted filter compiler, and the stack's filter hook. *)

open Paramecium

let ctx_fixture () =
  let clock = Clock.create () in
  (clock, Call_ctx.make ~clock ~costs:Cost.unit_costs ~caller_domain:0)

let run_prog ?(pkt = Bytes.make 16 '\000') prog =
  let _, ctx = ctx_fixture () in
  Vm.run ctx ~mem:(Vm.mem_of_bytes pkt) prog

let check_returned what expect outcome =
  match outcome with
  | Vm.Returned v -> Alcotest.(check int) what expect v
  | Vm.Wild_access o -> Alcotest.failf "%s: wild access at %d" what o
  | Vm.Vm_fault m -> Alcotest.failf "%s: fault %s" what m

(* --- ISA semantics ----------------------------------------------------- *)

let test_vm_arith () =
  check_returned "const/add" 12
    (run_prog [| Vm.Const (2, 5); Vm.Const (3, 7); Vm.Add (2, 2, 3); Vm.Ret 2 |]);
  check_returned "sub" 3
    (run_prog [| Vm.Const (2, 10); Vm.Const (3, 7); Vm.Sub (2, 2, 3); Vm.Ret 2 |]);
  check_returned "mul" 35
    (run_prog [| Vm.Const (2, 5); Vm.Const (3, 7); Vm.Mul (2, 2, 3); Vm.Ret 2 |]);
  check_returned "div" 4
    (run_prog [| Vm.Const (2, 9); Vm.Const (3, 2); Vm.Div (2, 2, 3); Vm.Ret 2 |]);
  check_returned "and/or/xor" 6
    (run_prog
       [| Vm.Const (2, 12); Vm.Const (3, 10); Vm.Xor (2, 2, 3); Vm.Ret 2 |]);
  check_returned "shl" 40 (run_prog [| Vm.Const (2, 5); Vm.Shl (2, 2, 3); Vm.Ret 2 |]);
  check_returned "shr" 5 (run_prog [| Vm.Const (2, 40); Vm.Shr (2, 2, 3); Vm.Ret 2 |]);
  check_returned "mov" 9 (run_prog [| Vm.Const (4, 9); Vm.Mov (2, 4); Vm.Ret 2 |])

let test_vm_conventions () =
  (* r0 = 0, r1 = window length on entry *)
  check_returned "r0 is zero" 0 (run_prog [| Vm.Ret 0 |]);
  check_returned "r1 is length" 16 (run_prog [| Vm.Ret 1 |])

let test_vm_memory () =
  let pkt = Bytes.of_string "paramecium-frame" in
  check_returned "load" (Char.code 'r')
    (run_prog ~pkt [| Vm.Const (2, 2); Vm.Load8 (3, 2, 0); Vm.Ret 3 |]);
  check_returned "load with displacement" (Char.code 'm')
    (run_prog ~pkt [| Vm.Const (2, 2); Vm.Load8 (3, 2, 2); Vm.Ret 3 |]);
  (* store then load back *)
  check_returned "store/load" 0x5A
    (run_prog ~pkt
       [| Vm.Const (2, 0x5A); Vm.Const (3, 4); Vm.Store8 (2, 3, 0);
          Vm.Load8 (4, 3, 0); Vm.Ret 4 |])

let test_vm_control_flow () =
  (* loop: sum bytes 0..len-1 of the window *)
  let pkt = Bytes.init 8 (fun i -> Char.chr (i + 1)) in
  let sum_loop =
    [|
      Vm.Const (2, 0) (* acc *); Vm.Const (3, 0) (* i *);
      Vm.Jlt (3, 1, 4) (* while i < len *); Vm.Ret 2; Vm.Load8 (4, 3, 0);
      Vm.Add (2, 2, 4); Vm.Const (5, 1); Vm.Add (3, 3, 5); Vm.Jmp 2;
    |]
  in
  check_returned "summing loop" 36 (run_prog ~pkt sum_loop);
  check_returned "jz taken" 1
    (run_prog [| Vm.Const (2, 0); Vm.Jz (2, 3); Vm.Ret 0; Vm.Const (2, 1); Vm.Ret 2 |]);
  check_returned "jnz not taken" 0
    (run_prog [| Vm.Const (2, 0); Vm.Jnz (2, 3); Vm.Ret 2; Vm.Const (2, 1); Vm.Ret 2 |])

let test_vm_faults () =
  let _, ctx = ctx_fixture () in
  let mem = Vm.mem_of_bytes (Bytes.create 8) in
  (match Vm.run ctx ~mem [| Vm.Const (2, 1); Vm.Const (3, 0); Vm.Div (2, 2, 3); Vm.Ret 2 |] with
  | Vm.Vm_fault "division by zero" -> ()
  | _ -> Alcotest.fail "div0");
  (match Vm.run ctx ~mem [| Vm.Jmp 99 |] with
  | Vm.Vm_fault _ -> ()
  | _ -> Alcotest.fail "bad jump");
  (match Vm.run ctx ~mem [| Vm.Const (2, 0) |] with
  | Vm.Vm_fault _ -> ()
  | _ -> Alcotest.fail "fell off the end");
  (match Vm.run ctx ~mem ~fuel:5 [| Vm.Jmp 0 |] with
  | Vm.Vm_fault "out of fuel" -> ()
  | _ -> Alcotest.fail "fuel");
  (match Vm.run ctx ~mem [||] with
  | Vm.Vm_fault "empty program" -> ()
  | _ -> Alcotest.fail "empty")

let test_vm_wild_access_detected () =
  let clock, ctx = ctx_fixture () in
  let mem = Vm.mem_of_bytes (Bytes.create 8) in
  (match Vm.run ctx ~mem [| Vm.Const (2, 100); Vm.Load8 (3, 2, 0); Vm.Ret 3 |] with
  | Vm.Wild_access 100 -> ()
  | _ -> Alcotest.fail "positive escape");
  (match Vm.run ctx ~mem [| Vm.Const (2, -1); Vm.Load8 (3, 2, 0); Vm.Ret 3 |] with
  | Vm.Wild_access (-1) -> ()
  | _ -> Alcotest.fail "negative escape");
  Alcotest.(check int) "counted" 2 (Clock.counter clock "vm_wild_access")

let test_vm_charges () =
  let clock, ctx = ctx_fixture () in
  let mem = Vm.mem_of_bytes (Bytes.create 8) in
  let before = Clock.now clock in
  ignore (Vm.run ctx ~mem [| Vm.Const (2, 0); Vm.Load8 (3, 2, 0); Vm.Ret 3 |]);
  (* 3 instructions + 1 access (unit costs: 1 each) *)
  Alcotest.(check int) "cycles" 4 (Clock.now clock - before)

(* --- encode/decode ------------------------------------------------------- *)

let test_codec_errors () =
  (match Vm.decode "abc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad length");
  let bad_op = String.make 8 '\255' in
  (match Vm.decode bad_op with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad opcode/register")

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
        map (fun t -> Vm.Jmp t) (int_bound 30);
        map2 (fun r t -> Vm.Jz (r, t)) reg (int_bound 30);
        map3 (fun a b t -> Vm.Jlt (a, b, t)) reg reg (int_bound 30);
        map (fun r -> Vm.Ret r) reg;
      ])

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let codec_prop =
  prop "encode/decode round trip"
    QCheck2.Gen.(map Array.of_list (list_size (int_range 1 40) gen_instr))
    (fun program ->
      match Vm.decode (Vm.encode program) with
      | Ok p -> p = program
      | Error _ -> false)

(* --- filterc ---------------------------------------------------------------- *)

(* reference interpreter for the filter language; [idx] is the enclosing
   sum's index, if any *)
let rec eval_ref ?idx pkt e =
  let len = Bytes.length pkt in
  let byte i = if i >= 0 && i < len then Char.code (Bytes.get pkt i) else 0 in
  let b2i b = if b then 1 else 0 in
  match e with
  | Filterc.Lit n -> n
  | Filterc.Len -> len
  | Filterc.Idx -> (
    match idx with Some i -> i | None -> Alcotest.fail "eval_ref: idx outside sum")
  | Filterc.For (lo, hi, body) ->
    let lo = eval_ref ?idx pkt lo and hi = eval_ref ?idx pkt hi in
    let acc = ref 0 in
    for i = lo to hi - 1 do
      acc := !acc + eval_ref ~idx:i pkt body
    done;
    !acc
  | Filterc.Byte ie -> byte (eval_ref ?idx pkt ie)
  | Filterc.Word16 ie ->
    let i = eval_ref ?idx pkt ie in
    (byte i * 256) + byte (i + 1)
  | Filterc.Bin (op, l, r) ->
    let a = eval_ref ?idx pkt l and b = eval_ref ?idx pkt r in
    (match op with
    | Filterc.Add -> a + b
    | Filterc.Sub -> a - b
    | Filterc.Mul -> a * b
    | Filterc.Band -> a land b
    | Filterc.Bxor -> a lxor b
    | Filterc.Eq -> b2i (a = b)
    | Filterc.Ne -> b2i (a <> b)
    | Filterc.Lt -> b2i (a < b)
    | Filterc.Le -> b2i (a <= b)
    | Filterc.Gt -> b2i (a > b)
    | Filterc.Ge -> b2i (a >= b)
    | Filterc.Andalso -> b2i (a <> 0 && b <> 0)
    | Filterc.Orelse -> b2i (a <> 0 || b <> 0))
  | Filterc.If (c, t, e) ->
    if eval_ref ?idx pkt c <> 0 then eval_ref ?idx pkt t else eval_ref ?idx pkt e

let compile_exn e =
  match Filterc.compile e with Ok p -> p | Error m -> Alcotest.fail m

let test_filterc_basics () =
  let pkt = Bytes.of_string "\x08\x00\x45\x11\x00\x40" in
  let checks =
    [
      ("byte", Filterc.Byte (Filterc.Lit 2), 0x45);
      ("word", Filterc.Word16 (Filterc.Lit 0), 0x800);
      ("len", Filterc.Len, 6);
      ("oob byte is 0", Filterc.Byte (Filterc.Lit 99), 0);
      ("negative index is 0", Filterc.Byte (Filterc.Lit (-3)), 0);
      ( "arith",
        Filterc.Bin (Filterc.Add, Filterc.Lit 40, Filterc.Bin (Filterc.Mul, Filterc.Lit 2, Filterc.Lit 1)),
        42 );
      ( "comparison",
        Filterc.Bin (Filterc.Lt, Filterc.Byte (Filterc.Lit 2), Filterc.Lit 0x50),
        1 );
      ( "if",
        Filterc.If (Filterc.Lit 0, Filterc.Lit 7, Filterc.Lit 9),
        9 );
      ( "sum of all bytes",
        Filterc.For (Filterc.Lit 0, Filterc.Len, Filterc.Byte Filterc.Idx),
        158 );
      ( "sum of indices",
        Filterc.For (Filterc.Lit 1, Filterc.Lit 4, Filterc.Idx),
        6 );
      ("empty sum", Filterc.For (Filterc.Lit 3, Filterc.Lit 3, Filterc.Lit 5), 0);
      ( "sum hi below lo",
        Filterc.For (Filterc.Lit 9, Filterc.Lit 2, Filterc.Lit 1),
        0 );
    ]
  in
  List.iter
    (fun (what, e, expect) -> check_returned what expect (run_prog ~pkt (compile_exn e)))
    checks

let test_filterc_parser () =
  let cases =
    [
      ("byte[12] == 8", true);
      ("word[12] == 2048 && byte[23] == 17", true);
      ("len > 64 || byte[0] != 0", true);
      ("(1 + 2) * 3 == 9", true);
      ("byte[12", false);
      ("foo[1]", false);
      ("1 ==", false);
      ("", false);
      ("1 2", false);
      ("sum[0 .. len](byte[idx]) == 158", true);
      ("sum[2 .. 9](idx) > 3", true);
      ("sum[0 len](idx)", false);
      ("sum[0 .. len](idx", false);
      ("sum[.. len](idx)", false);
    ]
  in
  List.iter
    (fun (src, ok) ->
      match Filterc.parse src with
      | Ok _ when ok -> ()
      | Error _ when not ok -> ()
      | Ok _ -> Alcotest.failf "should reject %S" src
      | Error e -> Alcotest.failf "should parse %S: %s" src e)
    cases

let test_filterc_too_deep () =
  let rec nest n = if n = 0 then Filterc.Lit 1 else Filterc.Bin (Filterc.Add, Filterc.Lit 1, nest (n - 1)) in
  (match Filterc.compile (nest 10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "deep nesting must be rejected")

let test_filterc_loop_misuse () =
  let expect_err what e =
    match Filterc.compile e with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" what
  in
  expect_err "idx outside a sum" Filterc.Idx;
  expect_err "nested sums"
    (Filterc.For
       ( Filterc.Lit 0,
         Filterc.Len,
         Filterc.For (Filterc.Lit 0, Filterc.Lit 3, Filterc.Idx) ));
  expect_err "sum below the top of an expression"
    (Filterc.Bin
       ( Filterc.Add,
         Filterc.Lit 1,
         Filterc.For (Filterc.Lit 0, Filterc.Len, Filterc.Idx) ))

let test_filterc_avoids_reserved_regs () =
  (* every compiled program must be SFI-rewritable *)
  let e =
    Filterc.Bin
      ( Filterc.Andalso,
        Filterc.Bin (Filterc.Eq, Filterc.Word16 (Filterc.Lit 4), Filterc.Lit 136),
        Filterc.Bin (Filterc.Lt, Filterc.Byte (Filterc.Lit 10), Filterc.Lit 50) )
  in
  (match Sfi_rewrite.rewrite (compile_exn e) ~window_size:2048 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m)

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
  (* depth-2 expressions stay within the compiler's register stack even
     after Andalso/Orelse desugaring *)
  let level1 = oneof [ base; map3 (fun o a b -> Filterc.Bin (o, a, b)) op base base ] in
  oneof
    [
      level1;
      map3 (fun o a b -> Filterc.Bin (o, a, b)) op level1 base;
      map3 (fun c t e -> Filterc.If (c, t, e)) base level1 level1;
    ]

let filterc_semantics_prop =
  prop "compiled filters agree with the reference interpreter"
    QCheck2.Gen.(pair gen_filter_expr (string_size (int_range 0 48)))
    (fun (e, pkt_str) ->
      let pkt = Bytes.of_string pkt_str in
      match Filterc.compile e with
      | Error _ -> true (* too deep: fine *)
      | Ok program ->
        (match run_prog ~pkt program with
        | Vm.Returned v -> v = eval_ref pkt e
        | Vm.Wild_access _ -> false (* compiled code must never escape *)
        | Vm.Vm_fault _ -> false))

(* loop-bearing filters: the sum construct against the same reference
   interpreter — bounds from the leaf pool, bodies leaves in r5 *)
let gen_loop_filter_expr =
  let open QCheck2.Gen in
  let bound =
    oneof
      [ map (fun n -> Filterc.Lit n) (int_bound 60); return Filterc.Len;
        map (fun i -> Filterc.Byte (Filterc.Lit i)) (int_range (-4) 40) ]
  in
  let body =
    oneof
      [ return (Filterc.Byte Filterc.Idx); return Filterc.Idx;
        map (fun n -> Filterc.Lit n) (int_bound 9);
        map (fun i -> Filterc.Byte (Filterc.Lit i)) (int_range 0 40);
        return Filterc.Len ]
  in
  let loop = map3 (fun lo hi b -> Filterc.For (lo, hi, b)) bound bound body in
  let op =
    oneofl
      [ Filterc.Add; Filterc.Band; Filterc.Eq; Filterc.Ne; Filterc.Lt; Filterc.Ge ]
  in
  oneof [ loop; map3 (fun o l r -> Filterc.Bin (o, l, r)) op loop bound ]

let loop_semantics_prop =
  prop "compiled sum loops agree with the reference interpreter"
    QCheck2.Gen.(pair gen_loop_filter_expr (string_size (int_range 0 48)))
    (fun (e, pkt_str) ->
      let pkt = Bytes.of_string pkt_str in
      match Filterc.compile e with
      | Error _ -> false (* leaf-bodied outermost sums always compile *)
      | Ok program ->
        (match run_prog ~pkt program with
        | Vm.Returned v -> v = eval_ref pkt e
        | Vm.Wild_access _ -> false
        | Vm.Vm_fault _ -> false))

let sfi_preserves_semantics_prop =
  prop "SFI rewriting preserves compiled-filter behaviour"
    QCheck2.Gen.(pair gen_filter_expr (string_size (int_range 0 32)))
    (fun (e, pkt_str) ->
      match Filterc.compile e with
      | Error _ -> true
      | Ok program ->
        let padded = Sfi_rewrite.padded_size (max 1 (String.length pkt_str)) in
        let pkt1 = Bytes.make padded '\000' in
        Bytes.blit_string pkt_str 0 pkt1 0 (String.length pkt_str);
        let pkt2 = Bytes.copy pkt1 in
        (match Sfi_rewrite.rewrite program ~window_size:padded with
        | Error _ -> false
        | Ok sandboxed ->
          run_prog ~pkt:pkt1 program = run_prog ~pkt:pkt2 sandboxed))

let sfi_preserves_loops_prop =
  prop "SFI rewriting preserves sum-loop behaviour"
    QCheck2.Gen.(pair gen_loop_filter_expr (string_size (int_range 0 32)))
    (fun (e, pkt_str) ->
      match Filterc.compile e with
      | Error _ -> false
      | Ok program ->
        let padded = Sfi_rewrite.padded_size (max 1 (String.length pkt_str)) in
        let pkt1 = Bytes.make padded '\000' in
        Bytes.blit_string pkt_str 0 pkt1 0 (String.length pkt_str);
        let pkt2 = Bytes.copy pkt1 in
        (match Sfi_rewrite.rewrite program ~window_size:padded with
        | Error _ -> false
        | Ok sandboxed ->
          run_prog ~pkt:pkt1 program = run_prog ~pkt:pkt2 sandboxed))

let sfi_containment_prop =
  prop "SFI-rewritten programs never escape the window"
    QCheck2.Gen.(map Array.of_list (list_size (int_range 1 25) gen_instr))
    (fun program ->
      if Array.exists
           (fun i ->
             match i with
             | Vm.Const (r, _) | Vm.Mov (r, _) | Vm.Jz (r, _) | Vm.Jnz (r, _)
             | Vm.Ret r ->
               r >= 6
             | Vm.Add (a, b, c) | Vm.Sub (a, b, c) | Vm.Load8 (a, b, c)
             | Vm.Store8 (a, b, c) ->
               a >= 6 || b >= 6 || c >= 6 && false
             | Vm.Jlt (a, b, _) -> a >= 6 || b >= 6
             | _ -> false)
           program
      then true (* rewriter rejects these; covered by unit test *)
      else begin
        match Sfi_rewrite.rewrite program ~window_size:64 with
        | Error _ -> true
        | Ok sandboxed ->
          (match run_prog ~pkt:(Bytes.create 64) sandboxed with
          | Vm.Wild_access _ -> false
          | Vm.Returned _ | Vm.Vm_fault _ -> true)
      end)

let test_sfi_rejections () =
  (match Sfi_rewrite.rewrite [| Vm.Const (6, 1); Vm.Ret 6 |] ~window_size:64 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reserved register must be rejected");
  (match Sfi_rewrite.rewrite [| Vm.Ret 0 |] ~window_size:63 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-power-of-two window must be rejected");
  Alcotest.(check int) "padded_size" 64 (Sfi_rewrite.padded_size 33);
  Alcotest.(check int) "padded_size exact" 32 (Sfi_rewrite.padded_size 32);
  Alcotest.(check int) "padded_size zero" 1 (Sfi_rewrite.padded_size 0)

let rewrite_exn p ~window_size =
  match Sfi_rewrite.rewrite p ~window_size with Ok p -> p | Error e -> failwith e

let test_sfi_jump_remap_across_masks () =
  (* two expanded accesses sit between the jump and its target: the
     remap must account for both inserted mask sequences *)
  let program =
    [|
      Vm.Const (2, 1);
      Vm.Jnz (2, 5) (* over both loads *);
      Vm.Load8 (3, 0, 0);
      Vm.Load8 (3, 0, 1);
      Vm.Ret 3;
      Vm.Const (4, 9);
      Vm.Ret 4;
    |]
  in
  let rewritten = rewrite_exn program ~window_size:16 in
  check_returned "raw" 9 (run_prog program);
  check_returned "rewritten follows the remapped jump" 9 (run_prog rewritten)

let test_sfi_window_boundaries () =
  let pkt () =
    let b = Bytes.make 16 '\000' in
    Bytes.set b 0 'A';
    Bytes.set b 15 'Z';
    b
  in
  let first = [| Vm.Load8 (3, 0, 0); Vm.Ret 3 |] in
  let last = [| Vm.Const (2, 15); Vm.Load8 (3, 2, 0); Vm.Ret 3 |] in
  let past = [| Vm.Const (2, 16); Vm.Load8 (3, 2, 0); Vm.Ret 3 |] in
  check_returned "first byte under masking" (Char.code 'A')
    (run_prog ~pkt:(pkt ()) (rewrite_exn first ~window_size:16));
  check_returned "last byte under masking" (Char.code 'Z')
    (run_prog ~pkt:(pkt ()) (rewrite_exn last ~window_size:16));
  (* one past the end: the raw program escapes; the mask wraps the
     address back to offset 0 — contained, by construction *)
  (match run_prog ~pkt:(pkt ()) past with
  | Vm.Wild_access 16 -> ()
  | _ -> Alcotest.fail "raw access at 16 must escape");
  check_returned "one-past-the-end wraps inside" (Char.code 'A')
    (run_prog ~pkt:(pkt ()) (rewrite_exn past ~window_size:16))

let test_sfi_out_of_range_jump_stays_out () =
  (* regression: [Jmp 5] in a 3-instruction program faults when run raw.
     The rewrite grows the program to 7 instructions, so leaving the
     target unmapped would turn it into a valid index mid-mask-sequence
     and silently un-fault the program *)
  let program = [| Vm.Store8 (0, 0, 0); Vm.Jmp 5; Vm.Ret 0 |] in
  let rewritten = rewrite_exn program ~window_size:16 in
  (match run_prog program with
  | Vm.Vm_fault "jump out of program" -> ()
  | _ -> Alcotest.fail "raw out-of-range jump must fault");
  match run_prog rewritten with
  | Vm.Vm_fault "jump out of program" -> ()
  | Vm.Returned v -> Alcotest.failf "rewritten program silently returned %d" v
  | _ -> Alcotest.fail "rewritten out-of-range jump must fault identically"

(* --- stack filter hook --------------------------------------------------------- *)

let make_packet ctx ~dst ~dport payload =
  Wire.frame ctx ~src:13 ~dst ~ttl:8 ~proto:Stack.proto_transport
    ~sport:9 ~dport (Bytes.of_string payload)

let filter_fixture () =
  let sys = System.create ~key_bits:384 () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let net = System.setup_networking sys ~placement:System.Certified ~addr:42 () in
  let ctx = Kernel.ctx k kdom in
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"bind_port"
       [ Value.Int 7 ]);
  (k, kdom, ctx, net)

let stack_stats ctx net =
  match Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"stats" [] with
  | Value.List [ Value.Int ok; Value.Int dropped; Value.Int tx; Value.Int filtered ] ->
    (ok, dropped, tx, filtered)
  | v -> Alcotest.failf "stats: %s" (Value.to_string v)

(* the transport destination port lives at frame offset 18 (frame 6 +
   net 10 + transport sport 2), high byte first *)
let dport_filter = "byte[19] == 7 && byte[18] == 0"

let test_stack_filter_drops () =
  let k, _, ctx, net = filter_fixture () in
  let code =
    match Filterc.compile_string dport_filter with
    | Ok p -> Vm.encode p
    | Error e -> Alcotest.fail e
  in
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
       [ Value.Blob (Bytes.of_string code); Value.Bool false ]);
  (* one packet to port 7 (kept), one to port 9 (filtered out) *)
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:7 "yes"));
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:9 "no"));
  Kernel.step k ~ticks:4 ();
  let ok, _, _, filtered = stack_stats ctx net in
  Alcotest.(check int) "accepted" 1 ok;
  Alcotest.(check int) "filtered" 1 filtered;
  (* clearing restores everything (port 9 is unbound -> dropped, not filtered) *)
  ignore (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"clear_filter" []);
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:9 "no"));
  Kernel.step k ~ticks:2 ();
  let _, dropped, _, filtered' = stack_stats ctx net in
  Alcotest.(check int) "no longer filtered" filtered filtered';
  Alcotest.(check bool) "dropped as unbound instead" true (dropped >= 1)

let test_stack_filter_sandboxed_equivalent_but_dearer () =
  let run sandboxed =
    let k, _, ctx, net = filter_fixture () in
    let code =
      match Filterc.compile_string dport_filter with
      | Ok p -> Vm.encode p
      | Error e -> Alcotest.fail e
    in
    ignore
      (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
         [ Value.Blob (Bytes.of_string code); Value.Bool sandboxed ]);
    let clock = Kernel.clock k in
    let before = Clock.now clock in
    for _ = 1 to 10 do
      Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:7 "x"));
      Kernel.step k ~ticks:1 ()
    done;
    Kernel.step k ~ticks:2 ();
    let ok, _, _, filtered = stack_stats ctx net in
    Alcotest.(check int) "all accepted" 10 ok;
    Alcotest.(check int) "none filtered" 0 filtered;
    Clock.now clock - before
  in
  let raw = run false in
  let sandboxed = run true in
  Alcotest.(check bool)
    (Printf.sprintf "sandboxed dearer (raw=%d sfi=%d)" raw sandboxed)
    true (sandboxed > raw)

let test_stack_filter_malicious_contained () =
  let k, _, ctx, net = filter_fixture () in
  (* hand-written hostile bytecode: tries to read far outside the packet *)
  let evil = [| Vm.Const (2, 1_000_000); Vm.Load8 (3, 2, 0); Vm.Ret 3 |] in
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
       [ Value.Blob (Bytes.of_string (Vm.encode evil)); Value.Bool false ]);
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:7 "x"));
  Kernel.step k ~ticks:2 ();
  Alcotest.(check int) "wild access recorded" 1
    (Clock.counter (Kernel.clock k) "vm_wild_access");
  (* the same code sandboxed is harmless (and reads zero padding) *)
  ignore
    (Invoke.call_exn ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
       [ Value.Blob (Bytes.of_string (Vm.encode evil)); Value.Bool true ]);
  Nic.inject (Kernel.nic k) (Bytes.to_string (make_packet ctx ~dst:42 ~dport:7 "x"));
  Kernel.step k ~ticks:2 ();
  Alcotest.(check int) "no further wild access" 1
    (Clock.counter (Kernel.clock k) "vm_wild_access")

let test_stack_filter_rejects_garbage () =
  let _, _, ctx, net = filter_fixture () in
  (match
     Invoke.call ctx net.System.stack ~iface:"stack" ~meth:"set_filter"
       [ Value.Blob (Bytes.of_string "not bytecode!!"); Value.Bool false ]
   with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "garbage object code must be refused")

(* totality fuzz: arbitrary bytes either fail to decode or run to a
   clean outcome — the host never sees an exception *)
let vm_totality_prop =
  prop "decode+run of random bytes never raises"
    QCheck2.Gen.(string_size (int_range 0 256))
    (fun junk ->
      match Vm.decode junk with
      | Error _ -> true
      | Ok program ->
        let _, ctx = ctx_fixture () in
        (match Vm.run ctx ~mem:(Vm.mem_of_bytes (Bytes.create 32)) ~fuel:500 program with
        | Vm.Returned _ | Vm.Wild_access _ | Vm.Vm_fault _ -> true))

let () =
  Alcotest.run "vm"
    [
      ( "isa",
        [
          Alcotest.test_case "arithmetic" `Quick test_vm_arith;
          Alcotest.test_case "conventions" `Quick test_vm_conventions;
          Alcotest.test_case "memory" `Quick test_vm_memory;
          Alcotest.test_case "control flow" `Quick test_vm_control_flow;
          Alcotest.test_case "faults" `Quick test_vm_faults;
          Alcotest.test_case "wild access" `Quick test_vm_wild_access_detected;
          Alcotest.test_case "cycle charging" `Quick test_vm_charges;
        ] );
      ( "codec",
        [ Alcotest.test_case "errors" `Quick test_codec_errors; codec_prop;
          vm_totality_prop ] );
      ( "filterc",
        [
          Alcotest.test_case "basics" `Quick test_filterc_basics;
          Alcotest.test_case "parser" `Quick test_filterc_parser;
          Alcotest.test_case "too deep" `Quick test_filterc_too_deep;
          Alcotest.test_case "loop misuse" `Quick test_filterc_loop_misuse;
          Alcotest.test_case "rewritable output" `Quick
            test_filterc_avoids_reserved_regs;
          filterc_semantics_prop;
          loop_semantics_prop;
        ] );
      ( "sfi",
        [
          Alcotest.test_case "rejections" `Quick test_sfi_rejections;
          Alcotest.test_case "jump remap across masks" `Quick
            test_sfi_jump_remap_across_masks;
          Alcotest.test_case "window boundaries" `Quick test_sfi_window_boundaries;
          Alcotest.test_case "out-of-range jump stays out" `Quick
            test_sfi_out_of_range_jump_stays_out;
          sfi_preserves_semantics_prop;
          sfi_preserves_loops_prop;
          sfi_containment_prop;
        ] );
      ( "stack-filter",
        [
          Alcotest.test_case "drops per filter" `Quick test_stack_filter_drops;
          Alcotest.test_case "sandboxed equivalent but dearer" `Quick
            test_stack_filter_sandboxed_equivalent_but_dearer;
          Alcotest.test_case "malicious contained" `Quick
            test_stack_filter_malicious_contained;
          Alcotest.test_case "garbage rejected" `Quick test_stack_filter_rejects_garbage;
        ] );
    ]

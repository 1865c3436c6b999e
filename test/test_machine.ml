(* Tests for the simulated machine: clock, physical memory, MMU,
   memory bus with fault handling, I/O space and device models. *)

open Paramecium

let unit_machine () = Machine.create ~costs:Cost.unit_costs ~frames:32 ~page_size:256 ()

(* --- clock ----------------------------------------------------------- *)

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.now c);
  Clock.advance c 10;
  Clock.advance c 5;
  Alcotest.(check int) "accumulates" 15 (Clock.now c);
  Clock.count c "ev";
  Clock.count_n c "ev" 4;
  Alcotest.(check int) "counter" 5 (Clock.counter c "ev");
  Alcotest.(check int) "unknown counter" 0 (Clock.counter c "none");
  let (), d = Clock.measure c (fun () -> Clock.advance c 7) in
  Alcotest.(check int) "measure" 7 d;
  Clock.reset c;
  Alcotest.(check int) "reset clock" 0 (Clock.now c);
  Alcotest.(check int) "reset counters" 0 (Clock.counter c "ev")

let test_clock_counters_sorted () =
  let c = Clock.create () in
  Clock.count c "zebra";
  Clock.count c "apple";
  Alcotest.(check (list (pair string int)))
    "sorted"
    [ ("apple", 1); ("zebra", 1) ]
    (Clock.counters c)

(* --- physmem --------------------------------------------------------- *)

let test_physmem_alloc_free () =
  let pm = Physmem.create ~frames:4 ~page_size:64 in
  Alcotest.(check int) "all free" 4 (Physmem.free_frames pm);
  let f1 = Physmem.alloc pm in
  let f2 = Physmem.alloc pm in
  Alcotest.(check bool) "distinct" true (f1 <> f2);
  Alcotest.(check int) "two used" 2 (Physmem.free_frames pm);
  Physmem.release pm f1;
  Alcotest.(check int) "released" 3 (Physmem.free_frames pm);
  Alcotest.(check bool) "not allocated" false (Physmem.is_allocated pm f1);
  ignore (Physmem.alloc pm);
  ignore (Physmem.alloc pm);
  ignore (Physmem.alloc pm);
  Alcotest.check_raises "exhaustion" Out_of_memory (fun () -> ignore (Physmem.alloc pm))

let test_physmem_refcount () =
  let pm = Physmem.create ~frames:2 ~page_size:64 in
  let f = Physmem.alloc pm in
  Physmem.ref_frame pm f;
  Physmem.release pm f;
  Alcotest.(check bool) "still allocated" true (Physmem.is_allocated pm f);
  Physmem.release pm f;
  Alcotest.(check bool) "now free" false (Physmem.is_allocated pm f)

let test_physmem_rw () =
  let pm = Physmem.create ~frames:2 ~page_size:64 in
  let f = Physmem.alloc pm in
  let base = f * 64 in
  Physmem.write8 pm base 0xAB;
  Alcotest.(check int) "byte" 0xAB (Physmem.read8 pm base);
  Physmem.write32 pm (base + 4) 0x01020304;
  Alcotest.(check int) "word" 0x01020304 (Physmem.read32 pm (base + 4));
  Physmem.blit_string pm "hello" (base + 10);
  Alcotest.(check string) "string" "hello" (Physmem.read_string pm (base + 10) 5);
  let other = if f = 0 then 1 else 0 in
  Alcotest.check_raises "unallocated frame"
    (Invalid_argument "Physmem: frame not allocated") (fun () ->
      ignore (Physmem.read8 pm ((other * 64) + 1)));
  Alcotest.check_raises "out of range" (Invalid_argument "Physmem: frame out of range")
    (fun () -> ignore (Physmem.read8 pm (63 * 64 + 1)))

(* --- mmu -------------------------------------------------------------- *)

let mmu_fixture () =
  let clock = Clock.create () in
  (clock, Mmu.create clock Cost.unit_costs ~page_size:256)

let test_mmu_map_translate () =
  let _, mmu = mmu_fixture () in
  let ctx = Mmu.new_context mmu in
  Mmu.map mmu ctx ~vpage:4 ~frame:9 ~prot:Mmu.Read_write;
  (match Mmu.translate mmu ctx (4 * 256 + 17) Mmu.Read with
  | Ok phys -> Alcotest.(check int) "translate" ((9 * 256) + 17) phys
  | Error f -> Alcotest.failf "unexpected fault %s" (Format.asprintf "%a" Mmu.pp_fault f));
  (match Mmu.translate mmu ctx 0 Mmu.Read with
  | Error { Mmu.reason = Mmu.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "expected unmapped fault");
  Alcotest.(check bool) "is_mapped" true (Mmu.is_mapped mmu ctx ~vpage:4);
  Alcotest.(check (option int)) "frame_of" (Some 9) (Mmu.frame_of mmu ctx ~vpage:4)

let test_mmu_protection () =
  let _, mmu = mmu_fixture () in
  let ctx = Mmu.new_context mmu in
  Mmu.map mmu ctx ~vpage:1 ~frame:2 ~prot:Mmu.Read_only;
  (match Mmu.translate mmu ctx 256 Mmu.Write with
  | Error { Mmu.reason = Mmu.Protection; _ } -> ()
  | _ -> Alcotest.fail "expected protection fault");
  (match Mmu.translate mmu ctx 256 Mmu.Read with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read should pass");
  Mmu.set_prot mmu ctx ~vpage:1 Mmu.No_access;
  (match Mmu.translate mmu ctx 256 Mmu.Read with
  | Error { Mmu.reason = Mmu.Protection; _ } -> ()
  | _ -> Alcotest.fail "no_access blocks reads")

let test_mmu_fault_hook () =
  let _, mmu = mmu_fixture () in
  let ctx = Mmu.new_context mmu in
  Mmu.map mmu ctx ~vpage:7 ~frame:1 ~prot:Mmu.Read_write;
  Mmu.set_fault_hook mmu ctx ~vpage:7 true;
  (match Mmu.translate mmu ctx (7 * 256) Mmu.Read with
  | Error { Mmu.reason = Mmu.Hooked; _ } -> ()
  | _ -> Alcotest.fail "expected hooked fault");
  Mmu.set_fault_hook mmu ctx ~vpage:7 false;
  (match Mmu.translate mmu ctx (7 * 256) Mmu.Read with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unhooked page should translate")

let test_mmu_context_isolation () =
  let _, mmu = mmu_fixture () in
  let c1 = Mmu.new_context mmu in
  let c2 = Mmu.new_context mmu in
  Mmu.map mmu c1 ~vpage:1 ~frame:3 ~prot:Mmu.Read_write;
  (match Mmu.translate mmu c2 256 Mmu.Read with
  | Error { Mmu.reason = Mmu.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "contexts must be isolated");
  Alcotest.check_raises "double map" (Invalid_argument "Mmu.map: page already mapped")
    (fun () -> Mmu.map mmu c1 ~vpage:1 ~frame:4 ~prot:Mmu.Read_only);
  Alcotest.(check int) "unmap returns frame" 3 (Mmu.unmap mmu c1 ~vpage:1)

let test_mmu_switch_costs () =
  let clock, mmu = mmu_fixture () in
  let c1 = Mmu.new_context mmu in
  let before = Clock.counter clock "context_switch" in
  Mmu.switch_context mmu c1;
  Mmu.switch_context mmu c1;
  (* second is a no-op *)
  Alcotest.(check int) "one switch" (before + 1) (Clock.counter clock "context_switch")

let test_mmu_tlb_refill_after_switch () =
  let clock, mmu = mmu_fixture () in
  let c1 = Mmu.new_context mmu in
  let c2 = Mmu.new_context mmu in
  Mmu.map mmu c1 ~vpage:1 ~frame:3 ~prot:Mmu.Read_write;
  Mmu.switch_context mmu c1;
  ignore (Mmu.translate mmu c1 256 Mmu.Read);
  let fills1 = Clock.counter clock "tlb_fill" in
  ignore (Mmu.translate mmu c1 256 Mmu.Read);
  Alcotest.(check int) "TLB hit: no refill" fills1 (Clock.counter clock "tlb_fill");
  Mmu.switch_context mmu c2;
  Mmu.switch_context mmu c1;
  ignore (Mmu.translate mmu c1 256 Mmu.Read);
  Alcotest.(check int) "flush forces refill" (fills1 + 1) (Clock.counter clock "tlb_fill")

let test_mmu_delete_context () =
  let _, mmu = mmu_fixture () in
  let c1 = Mmu.new_context mmu in
  Mmu.map mmu c1 ~vpage:1 ~frame:3 ~prot:Mmu.Read_write;
  Mmu.map mmu c1 ~vpage:2 ~frame:5 ~prot:Mmu.Read_write;
  let frames = List.sort compare (Mmu.delete_context mmu c1) in
  Alcotest.(check (list int)) "frames returned" [ 3; 5 ] frames

(* A translation's outcome: the physical address or the full fault. *)
let outcome =
  Alcotest.testable
    (fun fmt -> function
      | Ok phys -> Format.fprintf fmt "Ok 0x%x" phys
      | Error f -> Mmu.pp_fault fmt f)
    ( = )

(* Each stale-permission case starts from a write the TLB cached: vpage 3
   of the current context, Read_write, translated for a write twice with
   one fill between them. *)
let cached_write_fixture () =
  let clock, mmu = mmu_fixture () in
  let ctx = Mmu.new_context mmu in
  Mmu.map mmu ctx ~vpage:3 ~frame:5 ~prot:Mmu.Read_write;
  Mmu.switch_context mmu ctx;
  let fills0 = Clock.counter clock "tlb_fill" in
  Alcotest.check outcome "write" (Ok ((5 * 256) + 9))
    (Mmu.translate mmu ctx ((3 * 256) + 9) Mmu.Write);
  Alcotest.check outcome "write hit" (Ok (5 * 256))
    (Mmu.translate mmu ctx (3 * 256) Mmu.Write);
  Alcotest.(check int) "one fill" 1 (Clock.counter clock "tlb_fill" - fills0);
  (mmu, ctx)

let write_fault ctx reason =
  Error { Mmu.ctx; vaddr = 3 * 256; access = Mmu.Write; reason }

let test_mmu_stale_write_set_prot () =
  let mmu, ctx = cached_write_fixture () in
  Mmu.set_prot mmu ctx ~vpage:3 Mmu.Read_only;
  Alcotest.check outcome "write after Read_only" (write_fault ctx Mmu.Protection)
    (Mmu.translate mmu ctx (3 * 256) Mmu.Write)

let test_mmu_stale_write_hook () =
  let mmu, ctx = cached_write_fixture () in
  Mmu.set_fault_hook mmu ctx ~vpage:3 true;
  Alcotest.check outcome "write after hook" (write_fault ctx Mmu.Hooked)
    (Mmu.translate mmu ctx (3 * 256) Mmu.Write)

let test_mmu_stale_write_unmap () =
  let mmu, ctx = cached_write_fixture () in
  ignore (Mmu.unmap mmu ctx ~vpage:3);
  Alcotest.check outcome "write after unmap" (write_fault ctx Mmu.Unmapped)
    (Mmu.translate mmu ctx (3 * 256) Mmu.Write)

let test_mmu_cached_read_only () =
  let clock, mmu = mmu_fixture () in
  let ctx = Mmu.new_context mmu in
  Mmu.map mmu ctx ~vpage:3 ~frame:5 ~prot:Mmu.Read_only;
  Mmu.switch_context mmu ctx;
  Alcotest.check outcome "read" (Ok (5 * 256)) (Mmu.translate mmu ctx (3 * 256) Mmu.Read);
  let fills = Clock.counter clock "tlb_fill" in
  Alcotest.check outcome "write to the cached read" (write_fault ctx Mmu.Protection)
    (Mmu.translate mmu ctx (3 * 256) Mmu.Write);
  Alcotest.check outcome "read hit" (Ok (5 * 256))
    (Mmu.translate mmu ctx (3 * 256) Mmu.Read);
  Alcotest.(check int) "no fill for the fault or the hit" fills
    (Clock.counter clock "tlb_fill")

(* --- mmu against a model with no TLB ---------------------------------- *)

(* Random programs over 2-3 contexts (the boot context 0 among them) and
   4-8 vpages. Vpage index i is (i / 2) + 64 * (i mod 2), so the vpages
   come in pairs v and v + 64 that share a slot of the direct-mapped TLB.
   An operation names its context as the current one or by index. *)
type target = Cur | Ctx of int

type mmu_op =
  | Map of target * int * int * Mmu.prot (* vpage index, frame, prot *)
  | Unmap of target * int
  | Set_prot of target * int * Mmu.prot
  | Set_hook of target * int * bool
  | Switch of int
  | Translate of target * int * int * Mmu.access (* vpage index, offset *)

let gen_mmu_program =
  let open QCheck2.Gen in
  let* nctx = int_range 2 3 in
  let* nvp = int_range 4 8 in
  let target =
    frequency [ (3, pure Cur); (1, map (fun i -> Ctx i) (int_bound (nctx - 1))) ]
  in
  let vp = int_bound (nvp - 1) in
  let prot = oneofl [ Mmu.No_access; Mmu.Read_only; Mmu.Read_write ] in
  let op =
    frequency
      [
        (3, map4 (fun c v f p -> Map (c, v, f, p)) target vp (int_bound 31) prot);
        (1, map2 (fun c v -> Unmap (c, v)) target vp);
        (2, map3 (fun c v p -> Set_prot (c, v, p)) target vp prot);
        (1, map3 (fun c v h -> Set_hook (c, v, h)) target vp bool);
        (1, map (fun i -> Switch i) (int_bound (nctx - 1)));
        ( 6,
          map4
            (fun c v o a -> Translate (c, v, o, a))
            target vp (int_bound 255)
            (oneofl [ Mmu.Read; Mmu.Write ]) );
      ]
  in
  let+ ops = list_size (int_range 1 60) op in
  (nctx, ops)

let print_mmu_program (nctx, ops) =
  let t = function Cur -> "cur" | Ctx i -> Printf.sprintf "ctx%d" i in
  let prot = function
    | Mmu.No_access -> "none"
    | Mmu.Read_only -> "ro"
    | Mmu.Read_write -> "rw"
  in
  let op = function
    | Map (c, v, f, p) -> Printf.sprintf "map %s v%d f%d %s" (t c) v f (prot p)
    | Unmap (c, v) -> Printf.sprintf "unmap %s v%d" (t c) v
    | Set_prot (c, v, p) -> Printf.sprintf "set_prot %s v%d %s" (t c) v (prot p)
    | Set_hook (c, v, h) -> Printf.sprintf "hook %s v%d %b" (t c) v h
    | Switch i -> Printf.sprintf "switch ctx%d" i
    | Translate (c, v, o, a) ->
      Printf.sprintf "%s %s v%d+%d" (if a = Mmu.Read then "read" else "write") (t c) v o
  in
  Printf.sprintf "%d contexts: %s" nctx (String.concat "; " (List.map op ops))

(* The model: (ctx, vpage) -> (frame, prot, hooked), with no TLB. *)
let model_translate model ~page_size ctx vaddr access =
  let fault reason = Error { Mmu.ctx; vaddr; access; reason } in
  match Hashtbl.find_opt model (ctx, vaddr / page_size) with
  | None -> fault Mmu.Unmapped
  | Some (_, _, true) -> fault Mmu.Hooked
  | Some (frame, prot, false) ->
    let allowed =
      match (prot, access) with
      | Mmu.Read_write, _ | Mmu.Read_only, (Mmu.Read | Mmu.Exec) -> true
      | Mmu.Read_only, Mmu.Write | Mmu.No_access, _ -> false
    in
    if allowed then Ok ((frame * page_size) + (vaddr mod page_size))
    else fault Mmu.Protection

let mmu_matches_model (nctx, ops) =
  let clock, mmu = mmu_fixture () in
  let page_size = Mmu.page_size mmu in
  let ctxs = Array.init nctx (fun i -> if i = 0 then 0 else Mmu.new_context mmu) in
  let model = Hashtbl.create 16 in
  let key c v =
    let ctx = match c with Cur -> Mmu.current_context mmu | Ctx i -> ctxs.(i) in
    (ctx, (v / 2) + (64 * (v mod 2)))
  in
  let translate ctx vaddr access =
    let fills = Clock.counter clock "tlb_fill" in
    let r = Mmu.translate mmu ctx vaddr access in
    (r, Clock.counter clock "tlb_fill" - fills)
  in
  let step op =
    match op with
    | Map (c, v, frame, prot) ->
      let ((ctx, vpage) as k) = key c v in
      if not (Hashtbl.mem model k) then begin
        Mmu.map mmu ctx ~vpage ~frame ~prot;
        Hashtbl.replace model k (frame, prot, false)
      end
    | Unmap (c, v) -> (
      let ((ctx, vpage) as k) = key c v in
      match Hashtbl.find_opt model k with
      | Some (frame, _, _) ->
        Hashtbl.remove model k;
        if Mmu.unmap mmu ctx ~vpage <> frame then
          QCheck2.Test.fail_report "unmap: wrong frame"
      | None -> ())
    | Set_prot (c, v, prot) -> (
      let ((ctx, vpage) as k) = key c v in
      match Hashtbl.find_opt model k with
      | Some (frame, _, hooked) ->
        Mmu.set_prot mmu ctx ~vpage prot;
        Hashtbl.replace model k (frame, prot, hooked)
      | None -> ())
    | Set_hook (c, v, hooked) -> (
      let ((ctx, vpage) as k) = key c v in
      match Hashtbl.find_opt model k with
      | Some (frame, prot, _) ->
        Mmu.set_fault_hook mmu ctx ~vpage hooked;
        Hashtbl.replace model k (frame, prot, hooked)
      | None -> ())
    | Switch i -> Mmu.switch_context mmu ctxs.(i)
    | Translate (c, v, off, access) ->
      let ctx, vpage = key c v in
      let vaddr = (vpage * page_size) + off in
      let r, fills = translate ctx vaddr access in
      let expected = model_translate model ~page_size ctx vaddr access in
      if r <> expected then
        QCheck2.Test.fail_reportf "translate ctx %d 0x%x: got %a, model %a" ctx vaddr
          (Alcotest.pp outcome) r (Alcotest.pp outcome) expected;
      if ctx <> Mmu.current_context mmu && fills <> 0 then
        QCheck2.Test.fail_reportf "translate of non-current ctx %d filled the TLB" ctx;
      if Result.is_ok r then begin
        let again, refills = translate ctx vaddr access in
        if again <> r || refills <> 0 then
          QCheck2.Test.fail_reportf "repeated translate ctx %d 0x%x: %d fills" ctx vaddr
            refills
      end
  in
  List.iter step ops;
  true

let mmu_model_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"translate matches a model with no TLB"
       ~print:print_mmu_program gen_mmu_program mmu_matches_model)

(* --- machine bus and faults ------------------------------------------ *)

let test_machine_rw () =
  let m = unit_machine () in
  let mmu = Machine.mmu m in
  let ctx = Mmu.new_context mmu in
  let frame = Physmem.alloc (Machine.phys m) in
  Mmu.map mmu ctx ~vpage:2 ~frame ~prot:Mmu.Read_write;
  Machine.write8 m ctx 512 0x5A;
  Alcotest.(check int) "read8" 0x5A (Machine.read8 m ctx 512);
  Machine.write32 m ctx 600 0xDEADBEE;
  Alcotest.(check int) "read32" 0xDEADBEE (Machine.read32 m ctx 600);
  Machine.write_string m ctx 520 "paramecium";
  Alcotest.(check string) "string" "paramecium" (Machine.read_string m ctx 520 10)

let test_machine_straddling_word () =
  let m = unit_machine () in
  let mmu = Machine.mmu m in
  let ctx = Mmu.new_context mmu in
  let f1 = Physmem.alloc (Machine.phys m) in
  let f2 = Physmem.alloc (Machine.phys m) in
  Mmu.map mmu ctx ~vpage:0 ~frame:f1 ~prot:Mmu.Read_write;
  Mmu.map mmu ctx ~vpage:1 ~frame:f2 ~prot:Mmu.Read_write;
  (* write a 32-bit value across the page boundary at 254 *)
  Machine.write32 m ctx 254 0x11223344;
  Alcotest.(check int) "straddle round-trip" 0x11223344 (Machine.read32 m ctx 254)

(* --- cost-model invariants ---------------------------------------------- *)

(* A machine at the default costs with [pages] Read_write pages mapped
   from vpage 0 in a fresh context, made current so the TLB serves it. *)
let costed_machine ?(pages = 1) () =
  let m = Machine.create ~costs:Cost.default ~frames:32 ~page_size:256 () in
  let mmu = Machine.mmu m in
  let ctx = Mmu.new_context mmu in
  for vpage = 0 to pages - 1 do
    Mmu.map mmu ctx ~vpage ~frame:(Physmem.alloc (Machine.phys m)) ~prot:Mmu.Read_write
  done;
  Mmu.switch_context mmu ctx;
  (m, ctx)

(* the cycles and TLB fills [f] charges *)
let charged m f =
  let clock = Machine.clock m in
  let cycles = Clock.now clock and fills = Clock.counter clock "tlb_fill" in
  f ();
  (Clock.now clock - cycles, Clock.counter clock "tlb_fill" - fills)

let cost = Alcotest.(pair int int)

let test_machine_touched_page_costs () =
  let m, ctx = costed_machine () in
  let c = Machine.costs m in
  Alcotest.check cost "first touch fills" (c.Cost.mem_write + c.Cost.tlb_fill, 1)
    (charged m (fun () -> Machine.write8 m ctx 0 1));
  Alcotest.check cost "write8" (c.Cost.mem_write, 0)
    (charged m (fun () -> Machine.write8 m ctx 1 2));
  Alcotest.check cost "read8" (c.Cost.mem_read, 0)
    (charged m (fun () -> ignore (Machine.read8 m ctx 1)))

let test_machine_write_after_read_cost () =
  let m, ctx = costed_machine () in
  let c = Machine.costs m in
  ignore (Machine.read8 m ctx 0);
  Alcotest.check cost "first write after a read" (c.Cost.mem_write, 0)
    (charged m (fun () -> Machine.write8 m ctx 0 7))

let test_machine_write_string_cost () =
  let m, ctx = costed_machine () in
  let c = Machine.costs m in
  Machine.write8 m ctx 0 0;
  let s = "paramecium" in
  Alcotest.check cost "n bytes, n writes" (String.length s * c.Cost.mem_write, 0)
    (charged m (fun () -> Machine.write_string m ctx 8 s))

(* the straddling-word layout: a word at 254 spans vpages 0 and 1 *)
let test_machine_straddling_word_cost () =
  let m, ctx = costed_machine ~pages:2 () in
  let c = Machine.costs m in
  Alcotest.check cost "four byte reads, a fill per page"
    ((4 * c.Cost.mem_read) + (2 * c.Cost.tlb_fill), 2)
    (charged m (fun () -> ignore (Machine.read32 m ctx 254)));
  Alcotest.check cost "four byte writes" (4 * c.Cost.mem_write, 0)
    (charged m (fun () -> Machine.write32 m ctx 254 0x11223344));
  Alcotest.check cost "an aligned word is one access" (c.Cost.mem_read, 0)
    (charged m (fun () -> ignore (Machine.read32 m ctx 248)))

let test_machine_fault_handler_resolves () =
  let m = unit_machine () in
  let mmu = Machine.mmu m in
  let ctx = Mmu.new_context mmu in
  let frame = Physmem.alloc (Machine.phys m) in
  let resolved = ref 0 in
  Machine.set_fault_handler m
    (Some
       (fun fault ->
         incr resolved;
         (* demand-map the missing page *)
         Mmu.map mmu fault.Mmu.ctx ~vpage:(fault.Mmu.vaddr / 256) ~frame
           ~prot:Mmu.Read_write;
         true));
  Machine.write8 m ctx 300 7;
  Alcotest.(check int) "one fault" 1 !resolved;
  Alcotest.(check int) "after demand paging" 7 (Machine.read8 m ctx 300)

let test_machine_fatal_fault () =
  let m = unit_machine () in
  let ctx = Mmu.new_context (Machine.mmu m) in
  (match Machine.read8 m ctx 300 with
  | exception Machine.Fatal_fault { Mmu.reason = Mmu.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "expected fatal fault")

let test_machine_traps () =
  let m = unit_machine () in
  let hits = ref [] in
  Machine.set_trap_handler m 3 (Some (fun arg -> hits := arg :: !hits; arg * 2));
  Alcotest.(check int) "trap result" 14 (Machine.raise_trap m 3 7);
  Alcotest.(check (list int)) "trap arg" [ 7 ] !hits;
  (match Machine.raise_trap m 4 0 with
  | exception Machine.Machine_check _ -> ()
  | _ -> Alcotest.fail "unhandled trap should machine-check");
  Alcotest.(check int) "trap counted" 2 (Clock.counter (Machine.clock m) "trap")

let test_machine_irqs () =
  let m = unit_machine () in
  let fired = ref 0 in
  Machine.set_irq_handler m 2 (Some (fun () -> incr fired));
  Machine.raise_irq m 2;
  Machine.raise_irq m 5;
  (* no handler: spurious *)
  Alcotest.(check int) "fired" 1 !fired;
  Alcotest.(check int) "spurious counted" 1
    (Clock.counter (Machine.clock m) "spurious_interrupt")

(* --- devices ----------------------------------------------------------- *)

let test_console () =
  let m = unit_machine () in
  let con = Console.create m in
  String.iter (fun c -> Machine.io_write m (Console.io_base con) (Char.code c)) "boot ok";
  Alcotest.(check string) "output" "boot ok" (Console.output con);
  Console.clear con;
  Alcotest.(check string) "cleared" "" (Console.output con);
  Alcotest.(check int) "status ready" 1 (Machine.io_read m (Console.io_base con + 4))

let test_timer () =
  let m = unit_machine () in
  let tm = Timer_dev.create m ~irq_line:0 in
  let ticks = ref 0 in
  Machine.set_irq_handler m 0 (Some (fun () -> incr ticks));
  let base = Timer_dev.io_base tm in
  Machine.io_write m base 3 (* period *);
  Machine.io_write m (base + 4) 3 (* enable + periodic *);
  for _ = 1 to 10 do
    Machine.tick m
  done;
  Alcotest.(check int) "fired thrice" 3 !ticks;
  Alcotest.(check int) "fires counter" 3 (Timer_dev.fires tm)

let test_timer_oneshot () =
  let m = unit_machine () in
  let tm = Timer_dev.create m ~irq_line:0 in
  let ticks = ref 0 in
  Machine.set_irq_handler m 0 (Some (fun () -> incr ticks));
  let base = Timer_dev.io_base tm in
  Machine.io_write m base 2;
  Machine.io_write m (base + 4) 1 (* enable, not periodic *);
  for _ = 1 to 10 do
    Machine.tick m
  done;
  Alcotest.(check int) "fired once" 1 !ticks

let nic_fixture () =
  let m = unit_machine () in
  let nic = Nic.create m ~irq_line:1 in
  (m, nic)

let test_nic_rx_dma () =
  let m, nic = nic_fixture () in
  let irqs = ref 0 in
  Machine.set_irq_handler m 1 (Some (fun () -> incr irqs));
  let base = Nic.io_base nic in
  let frame = Physmem.alloc (Machine.phys m) in
  Machine.io_write m (base + 8) (frame * 256) (* RX_FREE <- buffer *);
  Machine.io_write m base 5 (* rx + irq enable *);
  Nic.inject nic "packet-one";
  Machine.tick m;
  Alcotest.(check int) "irq" 1 !irqs;
  Alcotest.(check int) "status rx" 1 (Machine.io_read m (base + 4) land 1);
  let addr = Machine.io_read m (base + 12) in
  let len = Machine.io_read m (base + 16) in
  Alcotest.(check int) "buffer addr" (frame * 256) addr;
  Alcotest.(check string) "payload" "packet-one"
    (Physmem.read_string (Machine.phys m) addr len);
  (* ack pops it *)
  Machine.io_write m (base + 4) 1;
  Alcotest.(check int) "status clear" 0 (Machine.io_read m (base + 4) land 1)

let test_nic_rx_drop_without_buffers () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic in
  Machine.io_write m base 1 (* rx enable, no buffers *);
  Nic.inject nic "lost";
  Machine.tick m;
  Alcotest.(check int) "dropped" 1 (Machine.io_read m (base + 32));
  Alcotest.(check int) "wire drained" 0 (Nic.pending_wire nic)

let test_nic_tx_and_loopback () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic in
  let frame = Physmem.alloc (Machine.phys m) in
  Physmem.blit_string (Machine.phys m) "outgoing!" (frame * 256);
  Machine.io_write m base (2 lor 8) (* tx + loopback *);
  Machine.io_write m (base + 20) (frame * 256);
  Machine.io_write m (base + 24) 9;
  Machine.io_write m (base + 28) 1 (* TX_GO *);
  Machine.tick m;
  Alcotest.(check (list string)) "transmitted" [ "outgoing!" ] (Nic.take_transmitted nic);
  Alcotest.(check int) "looped back onto wire" 1 (Nic.pending_wire nic);
  Alcotest.check_raises "oversize inject"
    (Invalid_argument "Nic.inject: packet exceeds MTU") (fun () ->
      Nic.inject nic (String.make (Nic.mtu + 1) 'x'))

let test_io_space_checks () =
  let m = unit_machine () in
  (match Machine.io_read m 0x2000_0000 with
  | exception Machine.Machine_check _ -> ()
  | _ -> Alcotest.fail "unmapped io should machine-check");
  let con = Console.create m in
  (match Machine.io_read m (Console.io_base con + 2) with
  | exception Machine.Machine_check _ -> ()
  | _ -> Alcotest.fail "unaligned io should machine-check");
  Alcotest.(check bool) "find_device" true (Machine.find_device m "console" <> None);
  Alcotest.(check bool) "missing device" true (Machine.find_device m "gpu" = None)

let () =
  Alcotest.run "machine"
    [
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "counters sorted" `Quick test_clock_counters_sorted;
        ] );
      ( "physmem",
        [
          Alcotest.test_case "alloc/free" `Quick test_physmem_alloc_free;
          Alcotest.test_case "refcount" `Quick test_physmem_refcount;
          Alcotest.test_case "read/write" `Quick test_physmem_rw;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "map/translate" `Quick test_mmu_map_translate;
          Alcotest.test_case "protection" `Quick test_mmu_protection;
          Alcotest.test_case "fault hook" `Quick test_mmu_fault_hook;
          Alcotest.test_case "context isolation" `Quick test_mmu_context_isolation;
          Alcotest.test_case "switch costs" `Quick test_mmu_switch_costs;
          Alcotest.test_case "tlb refill after switch" `Quick
            test_mmu_tlb_refill_after_switch;
          Alcotest.test_case "delete context" `Quick test_mmu_delete_context;
          Alcotest.test_case "stale write right: set_prot" `Quick
            test_mmu_stale_write_set_prot;
          Alcotest.test_case "stale write right: fault hook" `Quick
            test_mmu_stale_write_hook;
          Alcotest.test_case "stale write right: unmap" `Quick test_mmu_stale_write_unmap;
          Alcotest.test_case "cached read on a read-only page" `Quick
            test_mmu_cached_read_only;
          mmu_model_prop;
        ] );
      ( "bus",
        [
          Alcotest.test_case "read/write" `Quick test_machine_rw;
          Alcotest.test_case "straddling word" `Quick test_machine_straddling_word;
          Alcotest.test_case "straddling word cost" `Quick
            test_machine_straddling_word_cost;
          Alcotest.test_case "touched page costs" `Quick test_machine_touched_page_costs;
          Alcotest.test_case "write after read cost" `Quick
            test_machine_write_after_read_cost;
          Alcotest.test_case "write_string cost" `Quick test_machine_write_string_cost;
          Alcotest.test_case "fault handler resolves" `Quick
            test_machine_fault_handler_resolves;
          Alcotest.test_case "fatal fault" `Quick test_machine_fatal_fault;
          Alcotest.test_case "traps" `Quick test_machine_traps;
          Alcotest.test_case "irqs" `Quick test_machine_irqs;
        ] );
      ( "devices",
        [
          Alcotest.test_case "console" `Quick test_console;
          Alcotest.test_case "timer periodic" `Quick test_timer;
          Alcotest.test_case "timer one-shot" `Quick test_timer_oneshot;
          Alcotest.test_case "nic rx dma" `Quick test_nic_rx_dma;
          Alcotest.test_case "nic rx drop" `Quick test_nic_rx_drop_without_buffers;
          Alcotest.test_case "nic tx + loopback" `Quick test_nic_tx_and_loopback;
          Alcotest.test_case "io space checks" `Quick test_io_space_checks;
        ] );
    ]

(* Tests for the simulated machine: clock, physical memory, MMU,
   memory bus with fault handling, I/O space and device models, the
   block device's ring and synchronous transfer among them. *)

open Paramecium

let unit_machine () = Machine.create ~costs:Cost.unit_costs ~frames:32 ~page_size:256 ()

(* strings in and out of physical memory, over its bytes copy pair *)
let phys_put pm s addr =
  Physmem.write_bytes pm addr (Bytes.of_string s) 0 (String.length s)

let phys_get pm addr len =
  let b = Bytes.create len in
  Physmem.read_bytes pm addr b 0 len;
  Bytes.to_string b

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

(* every event's name is its own, and the string shim finds its slot:
   one row, not two *)
let test_clock_event_names () =
  let names = List.map Clock.name Clock.events in
  Alcotest.(check bool) "no empty name" false (List.mem "" names);
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun ev ->
      let c = Clock.create () and name = Clock.name ev in
      Clock.count c name;
      Clock.bump c ev;
      Alcotest.(check int) (name ^ " read") 2 (Clock.read c ev);
      Alcotest.(check (list (pair string int))) (name ^ " one row") [ (name, 2) ]
        (Clock.counters c))
    Clock.events

(* A reference clock that keeps its counters in a table of names: the
   slots and the string shim must report exactly what it reports. *)
module Counter_model = struct
  type t = { mutable cycles : int; table : (string, int ref) Hashtbl.t }

  let create () = { cycles = 0; table = Hashtbl.create 16 }

  let count_n t name n =
    match Hashtbl.find_opt t.table name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.table name (ref n)

  let counter t name = match Hashtbl.find_opt t.table name with Some r -> !r | None -> 0

  let counters t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset t =
    t.cycles <- 0;
    Hashtbl.reset t.table

  let snapshot t = (t.cycles, counters t)

  let since t (at0, before) =
    let at, after = snapshot t in
    let find name l = Option.value ~default:0 (List.assoc_opt name l) in
    let names = List.sort_uniq String.compare (List.map fst before @ List.map fst after) in
    ( at - at0,
      List.filter_map
        (fun name ->
          match find name after - find name before with 0 -> None | d -> Some (name, d))
        names )
end

type clock_op =
  | Bump of Clock.event
  | Bump_n of Clock.event * int
  | Count of string
  | Count_n of string * int
  | Advance of int
  | Reset
  | Snapshot

let ad_hoc_names = [ "ev"; "zebra"; "probe"; ""; "tlb_fil"; "Trap"; "trap " ]

let gen_clock_program =
  let open QCheck2.Gen in
  let event = oneofl Clock.events in
  let name = oneof [ map Clock.name event; oneofl ad_hoc_names ] in
  let n = oneof [ pure 0; int_range (-3) 6 ] in
  list_size (int_range 1 60)
    (frequency
       [
         (6, map (fun e -> Bump e) event);
         (4, map2 (fun e n -> Bump_n (e, n)) event n);
         (3, map (fun s -> Count s) name);
         (3, map2 (fun s n -> Count_n (s, n)) name n);
         (1, map (fun n -> Advance n) (int_bound 50));
         (1, pure Reset);
         (1, pure Snapshot);
       ])

let show_clock_op = function
  | Bump e -> "bump " ^ Clock.name e
  | Bump_n (e, n) -> Printf.sprintf "bump_n %s %d" (Clock.name e) n
  | Count s -> Printf.sprintf "count %S" s
  | Count_n (s, n) -> Printf.sprintf "count_n %S %d" s n
  | Advance n -> Printf.sprintf "advance %d" n
  | Reset -> "reset"
  | Snapshot -> "snapshot"

let run_clock_program ops =
  let c = Clock.create () and m = Counter_model.create () in
  let snaps = ref [] in
  let names = List.map Clock.name Clock.events @ ad_hoc_names in
  let rows = Alcotest.(list (pair string int)) in
  let same what t got want =
    if not (Alcotest.equal t got want) then
      QCheck2.Test.fail_reportf "%s: clock %a, model %a" what (Alcotest.pp t) got
        (Alcotest.pp t) want
  in
  List.iter
    (fun op ->
      (match op with
      | Bump e ->
        Clock.bump c e;
        Counter_model.count_n m (Clock.name e) 1
      | Bump_n (e, n) ->
        Clock.bump_n c e n;
        Counter_model.count_n m (Clock.name e) n
      | Count s ->
        Clock.count c s;
        Counter_model.count_n m s 1
      | Count_n (s, n) ->
        Clock.count_n c s n;
        Counter_model.count_n m s n
      | Advance n ->
        Clock.advance c n;
        m.Counter_model.cycles <- m.Counter_model.cycles + n
      | Reset ->
        Clock.reset c;
        Counter_model.reset m;
        snaps := []
      | Snapshot -> snaps := (Clock.snapshot c, Counter_model.snapshot m) :: !snaps);
      let step = show_clock_op op in
      same (step ^ ": counters") rows (Clock.counters c) (Counter_model.counters m);
      same (step ^ ": snapshot") rows (Clock.snapshot c).Clock.counts (Counter_model.counters m);
      List.iter
        (fun s ->
          same (step ^ ": counter " ^ s) Alcotest.int (Clock.counter c s)
            (Counter_model.counter m s))
        names;
      List.iter
        (fun ev ->
          same (step ^ ": read " ^ Clock.name ev) Alcotest.int (Clock.read c ev)
            (Counter_model.counter m (Clock.name ev)))
        Clock.events;
      List.iter
        (fun (cs, ms) ->
          let d = Clock.since c cs and at, counts = Counter_model.since m ms in
          same (step ^ ": since") Alcotest.(pair int rows) (d.Clock.at, d.Clock.counts)
            (at, counts))
        !snaps)
    ops;
  true

let test_clock_matches_table_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"counters match a table of names"
       ~print:(fun ops -> String.concat "; " (List.map show_clock_op ops))
       gen_clock_program run_clock_program)

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
  Alcotest.check_raises "exhaustion" Physmem.Out_of_frames (fun () ->
      ignore (Physmem.alloc pm))

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
  phys_put pm "hello" (base + 10);
  Alcotest.(check string) "string" "hello" (phys_get pm (base + 10) 5);
  let other = if f = 0 then 1 else 0 in
  Alcotest.check_raises "unallocated frame"
    (Invalid_argument "Physmem: frame not allocated") (fun () ->
      ignore (Physmem.read8 pm ((other * 64) + 1)));
  Alcotest.check_raises "out of range" (Invalid_argument "Physmem: frame out of range")
    (fun () -> ignore (Physmem.read8 pm (63 * 64 + 1)))

(* Words and copies across a frame boundary, and a copy that runs into
   an unallocated frame: the frames before it are copied, then the same
   exception a byte access raises. *)
let test_physmem_straddle () =
  let pm = Physmem.create ~frames:4 ~page_size:64 in
  let f0 = Physmem.alloc pm in
  let f1 = Physmem.alloc pm in
  Alcotest.(check int) "adjacent frames" (f0 + 1) f1;
  let edge = (f1 * 64) - 2 in
  Physmem.write32 pm edge 0xA1B2C3D4;
  Alcotest.(check int) "straddling word" 0xA1B2C3D4 (Physmem.read32 pm edge);
  Alcotest.(check (list int)) "little-endian across the boundary"
    [ 0xD4; 0xC3; 0xB2; 0xA1 ]
    (List.init 4 (fun i -> Physmem.read8 pm (edge + i)));
  Physmem.write32 pm (f0 * 64) 0x1_8765_4321;
  Alcotest.(check int) "a word keeps the low 32 bits, unsigned" 0x8765_4321
    (Physmem.read32 pm (f0 * 64));
  let s = String.init 100 (fun i -> Char.chr (33 + i)) in
  phys_put pm s ((f0 * 64) + 10);
  Alcotest.(check string) "copy across the boundary" s (phys_get pm ((f0 * 64) + 10) 100);
  (* frame 2 was never allocated *)
  let unallocated = Invalid_argument "Physmem: frame not allocated" in
  let from = (f1 * 64) + 20 in
  Alcotest.check_raises "write into an unallocated frame" unallocated (fun () ->
      Physmem.write_bytes pm from (Bytes.make 80 'z') 0 80);
  Alcotest.(check string) "the earlier frame was written" (String.make 44 'z')
    (phys_get pm from 44);
  let buf = Bytes.make 80 '.' in
  Alcotest.check_raises "read from an unallocated frame" unallocated (fun () ->
      Physmem.read_bytes pm from buf 0 80);
  Alcotest.(check string) "the earlier frame was read"
    (String.make 44 'z' ^ String.make 36 '.')
    (Bytes.to_string buf);
  Alcotest.check_raises "straddling word into an unallocated frame" unallocated
    (fun () -> Physmem.write32 pm ((f1 * 64) + 62) 0x11223344);
  Alcotest.(check (list int)) "its first frame's bytes were written" [ 0x44; 0x33 ]
    [ Physmem.read8 pm ((f1 * 64) + 62); Physmem.read8 pm ((f1 * 64) + 63) ];
  Alcotest.check_raises "buffer range" (Invalid_argument "Physmem: buffer range")
    (fun () -> Physmem.read_bytes pm (f0 * 64) (Bytes.create 4) 2 4)

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

(* A bulk copy whose pages the TLB holds builds nothing: 1,000 16-byte
   [write_bytes] allocate no word, and 1,000 [read_bytes] only their
   results (a header and three words each). [Gc.minor_words] is exact;
   [idle] is what reading it costs. *)
let test_machine_copies_allocate_nothing () =
  let m, ctx = costed_machine () in
  let data = Bytes.make 16 'x' in
  Machine.write_bytes m ctx 100 data;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words (fun () -> ()) in
  let writes =
    words (fun () ->
        for _ = 1 to 1_000 do
          Machine.write_bytes m ctx 100 data
        done)
  in
  let reads =
    words (fun () ->
        for _ = 1 to 1_000 do
          ignore (Sys.opaque_identity (Machine.read_bytes m ctx 100 16))
        done)
  in
  Alcotest.(check (float 0.)) "1,000 writes" idle writes;
  Alcotest.(check (float 0.)) "1,000 reads, the results alone" (idle +. 4_000.) reads

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

(* --- bulk copies: page segments against a byte loop ------------------- *)

(* The byte loops [Machine.read_string] and [write_string] once were,
   kept as the reference the page-segment copies must match. *)
let loop_read_string m ctx vaddr len =
  String.init len (fun i -> Char.chr (Machine.read8 m ctx (vaddr + i)))

let loop_write_string m ctx vaddr s =
  String.iteri (fun i c -> Machine.write8 m ctx (vaddr + i) (Char.code c)) s

type page = Absent | Ro | Rw | Hooked | Dangling

(* what the fault handler does: [Lies] claims every fault resolved and
   changes nothing, so the access retries until the machine gives up *)
type policy = No_handler | Maps | Unhooks | Refuses | Lies

type copy_case = {
  pages : page array;  (** vpages 0.. of the copying context *)
  policy : policy;
  current : bool;  (** the copying context is the current one *)
  warm : int list;  (** vpages read before the copy, filling the TLB *)
  write : bool;
  vaddr : int;
  data : string;  (** written, or its length read *)
}

let copy_page_size = 64
let copy_pages = 6

let gen_copy_case =
  let open QCheck2.Gen in
  let* pages =
    array_size (pure copy_pages)
      (frequencyl [ (1, Absent); (1, Ro); (4, Rw); (1, Hooked); (1, Dangling) ])
  in
  let* policy = oneofl [ No_handler; Maps; Unhooks; Refuses; Lies ] in
  let* current = bool in
  let* warm = list_size (int_bound 4) (int_bound (copy_pages - 1)) in
  let* write = bool in
  let* vaddr = int_bound ((copy_pages * copy_page_size) - 1) in
  let+ data =
    string_size ~gen:printable
      (frequency [ (1, pure 0); (8, int_bound (3 * copy_page_size)) ])
  in
  { pages; policy; current; warm; write; vaddr; data }

let print_copy_case c =
  let page = function
    | Absent -> "-"
    | Ro -> "ro"
    | Rw -> "rw"
    | Hooked -> "hooked"
    | Dangling -> "dangling"
  in
  let policy = function
    | No_handler -> "no handler"
    | Maps -> "maps"
    | Unhooks -> "unhooks"
    | Refuses -> "refuses"
    | Lies -> "lies"
  in
  Printf.sprintf "pages [%s], handler %s, %s, warm [%s], %s %d bytes at %d"
    (String.concat " " (Array.to_list (Array.map page c.pages)))
    (policy c.policy)
    (if c.current then "current" else "not current")
    (String.concat " " (List.map string_of_int c.warm))
    (if c.write then "write" else "read")
    (String.length c.data) c.vaddr

type copy_outcome = Copied of string | Faulted of Mmu.fault | Invalid of string

(* Run one case on a fresh machine and report what an observer can see:
   the result or the raised fault, the cycles, every counter, the
   handler's calls, physical memory, and the TLB left behind (the cost
   of a probe read of each page afterwards). *)
let run_copy_case ~segmented c =
  let ps = copy_page_size in
  let m = Machine.create ~costs:Cost.default ~frames:32 ~page_size:ps () in
  let mmu = Machine.mmu m and phys = Machine.phys m in
  let ctx = Mmu.new_context mmu and other = Mmu.new_context mmu in
  let frames =
    Array.mapi
      (fun vpage p ->
        if p = Absent then None
        else begin
          let frame = Physmem.alloc phys in
          let prot = if p = Ro then Mmu.Read_only else Mmu.Read_write in
          Mmu.map mmu ctx ~vpage ~frame ~prot;
          if p = Hooked then Mmu.set_fault_hook mmu ctx ~vpage true;
          phys_put phys
            (String.init ps (fun i -> Char.chr (65 + (((vpage * 7) + i) mod 26))))
            (frame * ps);
          Some frame
        end)
      c.pages
  in
  Array.iteri
    (fun vpage p -> if p = Dangling then Physmem.release phys (Option.get frames.(vpage)))
    c.pages;
  let calls = ref [] in
  (* each call is logged with the cycle it came at: a charge moved
     across the translation shows *)
  let handler (f : Mmu.fault) =
    calls := (Clock.now (Machine.clock m), f) :: !calls;
    let vpage = f.Mmu.vaddr / ps in
    match (c.policy, f.Mmu.reason) with
    | (Maps | Unhooks), Mmu.Hooked ->
      Mmu.set_fault_hook mmu f.Mmu.ctx ~vpage false;
      true
    | Maps, Mmu.Unmapped ->
      Mmu.map mmu f.Mmu.ctx ~vpage ~frame:(Physmem.alloc phys) ~prot:Mmu.Read_write;
      true
    | Maps, Mmu.Protection ->
      Mmu.set_prot mmu f.Mmu.ctx ~vpage Mmu.Read_write;
      true
    | Lies, _ -> true
    | (No_handler | Unhooks | Refuses), _ -> false
  in
  if c.policy <> No_handler then Machine.set_fault_handler m (Some handler);
  Mmu.switch_context mmu (if c.current then ctx else other);
  if c.current then
    List.iter
      (fun vpage ->
        if c.pages.(vpage) = Ro || c.pages.(vpage) = Rw then
          ignore (Machine.read8 m ctx (vpage * ps)))
      c.warm;
  let clock = Machine.clock m in
  let t0 = Clock.now clock in
  let outcome =
    match
      if c.write then begin
        (if segmented then Machine.write_string else loop_write_string)
          m ctx c.vaddr c.data;
        ""
      end
      else
        (if segmented then Machine.read_string else loop_read_string)
          m ctx c.vaddr (String.length c.data)
    with
    | s -> Copied s
    | exception Machine.Fatal_fault f -> Faulted f
    | exception Invalid_argument e -> Invalid e
  in
  let cycles = Clock.now clock - t0 and counters = Clock.counters clock in
  Machine.set_fault_handler m None;
  let probe =
    List.init (copy_pages + 3) (fun vpage ->
        let t = Clock.now clock in
        match Machine.read8 m ctx (vpage * ps) with
        | v -> (Some v, Clock.now clock - t)
        | exception (Machine.Fatal_fault _ | Invalid_argument _) ->
          (None, Clock.now clock - t))
  in
  let memory =
    List.init (Physmem.total_frames phys) (fun f ->
        if Physmem.is_allocated phys f then Some (phys_get phys (f * ps) ps) else None)
  in
  (outcome, cycles, counters, List.rev !calls, memory, probe)

let copy_matches_loop c =
  let ((o, cyc, cnt, calls, mem, probe) as seg) = run_copy_case ~segmented:true c in
  let ((o', cyc', cnt', calls', mem', probe') as loop) =
    run_copy_case ~segmented:false c
  in
  let differ what = QCheck2.Test.fail_reportf "%s differs from the byte loop" what in
  if o <> o' then differ "the result";
  if cyc <> cyc' then QCheck2.Test.fail_reportf "cycles: %d, byte loop %d" cyc cyc';
  if cnt <> cnt' then differ "a counter";
  if calls <> calls' then differ "the fault handler's call log";
  if mem <> mem' then differ "physical memory";
  if probe <> probe' then differ "the TLB left behind";
  seg = loop

let copy_cost_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"page-segment copies cost what a byte loop costs"
       ~print:print_copy_case gen_copy_case copy_matches_loop)

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
    (phys_get (Machine.phys m) addr len);
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

(* a looped-back frame goes to the receive side and never reaches the
   wire, so the capture stays empty *)
let test_nic_tx_and_loopback () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic and phys = Machine.phys m in
  let frame = Physmem.alloc phys and buf = Physmem.alloc phys in
  phys_put phys "outgoing!" (frame * 256);
  Machine.io_write m base (2 lor 8) (* tx + loopback *);
  Machine.io_write m (base + 20) (frame * 256);
  Machine.io_write m (base + 24) 9;
  Machine.io_write m (base + 28) 1 (* TX_GO *);
  Machine.tick m;
  Alcotest.(check int) "looped back to the receive side" 1 (Nic.pending_wire nic);
  Machine.io_write m (base + 8) (buf * 256) (* RX_FREE <- buffer *);
  Machine.io_write m base (1 lor 2 lor 8) (* rx + tx + loopback *);
  Machine.tick m;
  Alcotest.(check int) "received" 0 (Nic.pending_wire nic);
  Alcotest.(check int) "rx length" 9 (Machine.io_read m (base + 16));
  Alcotest.(check string) "in the posted buffer" "outgoing!"
    (phys_get phys (Machine.io_read m (base + 12)) 9);
  Alcotest.(check (list string)) "nothing on the wire" [] (Nic.take_transmitted nic);
  Alcotest.check_raises "oversize inject"
    (Invalid_argument "Nic.inject: packet exceeds MTU") (fun () ->
      Nic.inject nic (String.make (Nic.mtu + 1) 'x'))

(* a tick raises at most one interrupt: a looped-back frame's tx-done and
   rx share one, and a frame that arrives while an earlier rx is still
   unacknowledged raises one of its own *)
let test_nic_one_interrupt_per_tick () =
  let m, nic = nic_fixture () in
  let irqs = ref 0 in
  Machine.set_irq_handler m 1 (Some (fun () -> incr irqs));
  let base = Nic.io_base nic and phys = Machine.phys m in
  let tx = Physmem.alloc phys in
  phys_put phys "looped" (tx * 256);
  for _ = 1 to 2 do
    Machine.io_write m (base + 8) (Physmem.alloc phys * 256) (* RX_FREE <- buffer *)
  done;
  Machine.io_write m base (1 lor 2 lor 4 lor 8) (* rx + tx + irq + loopback *);
  Machine.io_write m (base + 20) (tx * 256);
  Machine.io_write m (base + 24) 6;
  Machine.io_write m (base + 28) 1 (* TX_GO *);
  Machine.tick m;
  Alcotest.(check int) "tx-done and rx share one interrupt" 1 !irqs;
  Alcotest.(check int) "both causes pending" 3 (Machine.io_read m (base + 4) land 3);
  Nic.inject nic "rx-only";
  Machine.tick m;
  Alcotest.(check int) "a second rx raises its own" 2 !irqs;
  Machine.tick m;
  Alcotest.(check int) "an idle tick raises none" 2 !irqs

(* the wire keeps the newest [capture] frames: three past the cap, the
   oldest three are gone and the rest come back in order, once *)
let test_nic_tx_capture () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic in
  let frame = Physmem.alloc (Machine.phys m) in
  let payload i = Printf.sprintf "frame-%05d" i in
  Machine.io_write m base 2 (* tx *);
  for i = 0 to Nic.capture + 2 do
    phys_put (Machine.phys m) (payload i) (frame * 256);
    Machine.io_write m (base + 20) (frame * 256);
    Machine.io_write m (base + 24) (String.length (payload i));
    Machine.io_write m (base + 28) 1 (* TX_GO *);
    Machine.tick m
  done;
  Alcotest.(check (list string))
    "the newest frames, oldest first"
    (List.init Nic.capture (fun k -> payload (k + 3)))
    (Nic.take_transmitted nic);
  Alcotest.(check (list string)) "taken once" [] (Nic.take_transmitted nic)

(* Pop the filled descriptor at the head of the receive ring: its
   payload, read from the buffer it landed in, and the buffer's address. *)
let nic_pop m base =
  let addr = Machine.io_read m (base + 12) and len = Machine.io_read m (base + 16) in
  let payload = phys_get (Machine.phys m) addr len in
  Machine.io_write m (base + 4) 1 (* ack pops it *);
  (payload, addr)

(* the receive ring holds [rx_slots] descriptors: posts past it are
   dropped, so the frames past it find no buffer; and a filled frame the
   driver has not popped still holds its slot *)
let test_nic_rx_ring_capacity () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic in
  let buf = Physmem.alloc (Machine.phys m) * 256 in
  for _ = 1 to Nic.rx_slots + 3 do
    Machine.io_write m (base + 8) buf (* RX_FREE <- buffer *)
  done;
  Alcotest.(check int) "RX_FREE reads the capacity" Nic.rx_slots
    (Machine.io_read m (base + 8));
  Machine.io_write m base 1 (* rx enable *);
  for i = 1 to Nic.rx_slots + 3 do
    Nic.inject nic (Printf.sprintf "f%d" i);
    Machine.tick m
  done;
  Alcotest.(check int) "the extra buffers were dropped" 3 (Machine.io_read m (base + 32));
  Alcotest.(check int) "every posted buffer filled" 0 (Machine.io_read m (base + 8));
  Machine.io_write m (base + 8) buf;
  Alcotest.(check int) "a post against a ring of filled frames is dropped" 0
    (Machine.io_read m (base + 8));
  ignore (nic_pop m base);
  Machine.io_write m (base + 8) buf;
  Alcotest.(check int) "a pop frees a slot" 1 (Machine.io_read m (base + 8))

(* a driver keeps [posted] buffers on the ring and re-posts each one
   after its frame, as Netdrv does; over several wraps of the ring every
   frame lands in the buffer posted longest ago, in order *)
let test_nic_rx_ring_order () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic in
  let page = Physmem.alloc (Machine.phys m) * 256 in
  let posted = 5 and frames = (3 * Nic.rx_slots) + 7 in
  let buffer i = page + (16 * (i mod 16)) in
  for i = 0 to posted - 1 do
    Machine.io_write m (base + 8) (buffer i)
  done;
  Machine.io_write m base 1 (* rx enable *);
  let next_post = ref posted in
  for i = 0 to frames - 1 do
    Nic.inject nic (Printf.sprintf "f%d" i);
    Machine.tick m;
    let payload, addr = nic_pop m base in
    Alcotest.(check string) "frame in order" (Printf.sprintf "f%d" i) payload;
    Alcotest.(check int) "the oldest posted buffer" (buffer i) addr;
    Machine.io_write m (base + 8) (buffer !next_post);
    incr next_post
  done;
  Alcotest.(check int) "none dropped" 0 (Machine.io_read m (base + 32));
  Alcotest.(check int) "the driver's buffers still posted" posted
    (Machine.io_read m (base + 8))

(* TX_GO against a full transmit ring drops the staged descriptor *)
let test_nic_tx_ring_full () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic and phys = Machine.phys m in
  let frame = Physmem.alloc phys * 256 in
  Machine.io_write m base 2 (* tx *);
  for i = 0 to Nic.tx_slots do
    phys_put phys (Printf.sprintf "t%02d" i) (frame + (4 * i));
    Machine.io_write m (base + 20) (frame + (4 * i));
    Machine.io_write m (base + 24) 3;
    Machine.io_write m (base + 28) 1 (* TX_GO *)
  done;
  Alcotest.(check int) "TX_FREE reads 0" 0 (Machine.io_read m (base + 36));
  for _ = 0 to Nic.tx_slots do
    Machine.tick m
  done;
  Alcotest.(check (list string))
    "the ring's frames went out; the last kick was dropped"
    (List.init Nic.tx_slots (Printf.sprintf "t%02d"))
    (Nic.take_transmitted nic);
  Alcotest.(check int) "the ring is free again" Nic.tx_slots
    (Machine.io_read m (base + 36))

(* A looped-back frame's round, the driver's side included (stage, kick,
   tick, pop, re-post), allocates the frame and the wire's queue cell (3
   words) and nothing else: no descriptor allocates. [Gc.minor_words] is
   exact. *)
let test_nic_loopback_allocates_the_frame () =
  let m, nic = nic_fixture () in
  let base = Nic.io_base nic and phys = Machine.phys m in
  let tx = Physmem.alloc phys * 256 and rx = Physmem.alloc phys * 256 in
  let payload = String.make 100 'p' in
  phys_put phys payload tx;
  for i = 0 to 7 do
    Machine.io_write m (base + 8) (rx + (16 * i))
  done;
  Machine.io_write m base (1 lor 2 lor 8) (* rx + tx + loopback *);
  let round () =
    Machine.io_write m (base + 20) tx;
    Machine.io_write m (base + 24) (String.length payload);
    Machine.io_write m (base + 28) 1 (* TX_GO *);
    Machine.tick m;
    let addr = Machine.io_read m (base + 12) in
    ignore (Machine.io_read m (base + 16));
    Machine.io_write m (base + 4) 3 (* ack rx and tx-done *);
    Machine.io_write m (base + 8) addr (* re-post *)
  in
  for _ = 1 to 3 * Nic.rx_slots do
    round ()
  done;
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  (* a 100-byte string: a header and 13 words of bytes and padding *)
  let frame = 1 + ((String.length payload + 8) / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words a round, the frame is %d" words frame)
    true
    (words <= float_of_int (frame + 3));
  Alcotest.(check int) "every frame received" 0 (Machine.io_read m (base + 32));
  Alcotest.(check (list string)) "none on the wire" [] (Nic.take_transmitted nic)

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

(* --- block device --------------------------------------------------- *)

(* A 32-block device of page-size (256-byte) blocks on the unit-cost
   machine, interrupting on line 3. *)
let blk_fixture () =
  let m = unit_machine () in
  (m, Blkdev.create m ~name:"disk" ~irq_line:3 ~blocks:32 ~block_size:256)

(* the register map, one 32-bit register per index *)
let blk_reg d i = Blkdev.io_base d + (4 * i)
let r_ring_base = 0
let r_ring_slots = 1
let r_tail = 2
let r_head = 3
let r_ctrl = 4
let r_status = 5
let r_blocks = 6
let r_block_size = 7
let r_completed = 8

let blk_read = 1
let blk_write = 2
let desc_done = 0x100
let desc_error = 0x200

(* Program a ring of [slots] descriptors in a fresh frame, enabled with
   completion interrupts; returns its physical address. *)
let blk_ring m d ~slots =
  let ring = Physmem.alloc (Machine.phys m) * Machine.page_size m in
  Machine.io_write m (blk_reg d r_ring_base) ring;
  Machine.io_write m (blk_reg d r_ring_slots) slots;
  Machine.io_write m (blk_reg d r_ctrl) 3;
  ring

let desc_addr ~ring ~slots i = ring + (i mod slots * 16)

(* Write descriptors [tail ..] for [(op, block, buf)] and publish them
   with one TAIL write; returns the new tail. *)
let blk_publish m d ~ring ~slots ~tail descs =
  let phys = Machine.phys m in
  List.iteri
    (fun k (op, block, buf) ->
      let a = desc_addr ~ring ~slots (tail + k) in
      Physmem.write32 phys a op;
      Physmem.write32 phys (a + 4) block;
      Physmem.write32 phys (a + 8) buf)
    descs;
  let tail = tail + List.length descs in
  Machine.io_write m (blk_reg d r_tail) tail;
  tail

(* Poll STATUS until HEAD = TAIL: each read lets the device progress. *)
let blk_drain m d ~tail =
  let rec poll n =
    if n > 100 then Alcotest.fail "device never drained"
    else if Machine.io_read m (blk_reg d r_head) <> tail then begin
      ignore (Machine.io_read m (blk_reg d r_status));
      poll (n + 1)
    end
  in
  poll 0

let test_blkdev_ring () =
  let m, d = blk_fixture () in
  let phys = Machine.phys m in
  let irqs = ref 0 in
  Machine.set_irq_handler m 3 (Some (fun () -> incr irqs));
  let ring = blk_ring m d ~slots:4 in
  let src = Physmem.alloc phys * 256 and dst = Physmem.alloc phys * 256 in
  phys_put phys "dma!" src;
  let tail =
    blk_publish m d ~ring ~slots:4 ~tail:0
      [ (blk_write, 7, src); (blk_read, 7, dst) ]
  in
  Alcotest.(check int) "both fetched, none due" 2 (Blkdev.in_flight d);
  blk_drain m d ~tail;
  Alcotest.(check string) "read sees the write" "dma!" (phys_get phys dst 4);
  (* the media serializes the two, so each completes in its own batch *)
  Alcotest.(check int) "completion irqs" 2 !irqs;
  Alcotest.(check int) "irqs counted" 2 (Blkdev.irqs d);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "descriptor %d done, no error" i)
        desc_done
        (Physmem.read32 phys (desc_addr ~ring ~slots:4 i) land (desc_done lor desc_error)))
    [ 0; 1 ];
  Alcotest.(check int) "status pending" 1 (Machine.io_read m (blk_reg d r_status) land 1);
  Machine.io_write m (blk_reg d r_status) 1;
  Alcotest.(check int) "status cleared" 0 (Machine.io_read m (blk_reg d r_status) land 1);
  Alcotest.(check int) "BLOCKS" 32 (Machine.io_read m (blk_reg d r_blocks));
  Alcotest.(check int) "BLOCK_SIZE" 256 (Machine.io_read m (blk_reg d r_block_size));
  Alcotest.(check int) "COMPLETED" 2 (Machine.io_read m (blk_reg d r_completed));
  Alcotest.(check (pair int int)) "reads, writes" (1, 1) (Blkdev.reads d, Blkdev.writes d)

let test_blkdev_descriptor_errors () =
  let m, d = blk_fixture () in
  let phys = Machine.phys m in
  let ring = blk_ring m d ~slots:4 in
  let buf = Physmem.alloc phys * 256 in
  let tail = blk_publish m d ~ring ~slots:4 ~tail:0 [ (3, 1, buf); (blk_read, 32, buf) ] in
  blk_drain m d ~tail;
  List.iter
    (fun (i, what) ->
      Alcotest.(check int) what (desc_done lor desc_error)
        (Physmem.read32 phys (desc_addr ~ring ~slots:4 i) land (desc_done lor desc_error)))
    [ (0, "bad op: done + error"); (1, "block out of range: done + error") ];
  Alcotest.(check int) "errors" 2 (Blkdev.errors d);
  Alcotest.(check int) "blk_error counted" 2 (Clock.counter (Machine.clock m) "blk_error");
  Alcotest.(check int) "no media traffic" 0 (Blkdev.reads d + Blkdev.writes d)

let test_blkdev_sync_round_trip () =
  let m, d = blk_fixture () in
  let phys = Machine.phys m in
  let f1 = Physmem.alloc phys in
  let f2 = Physmem.alloc phys in
  phys_put phys "persistent data" (f1 * 256);
  Blkdev.write_sync d ~block:5 ~phys_addr:(f1 * 256);
  Blkdev.read_sync d ~block:5 ~phys_addr:(f2 * 256);
  Alcotest.(check string) "round trip" "persistent data"
    (phys_get phys (f2 * 256) 15);
  Alcotest.(check int) "reads" 1 (Blkdev.reads d);
  Alcotest.(check int) "writes" 1 (Blkdev.writes d);
  (* unwritten blocks read as zeroes *)
  Blkdev.read_sync d ~block:9 ~phys_addr:(f2 * 256);
  Alcotest.(check int) "zero fill" 0 (Physmem.read8 phys (f2 * 256));
  Alcotest.check_raises "bad block"
    (Invalid_argument "Blkdev.read_sync: block 32 out of range") (fun () ->
      Blkdev.read_sync d ~block:32 ~phys_addr:(f1 * 256))

(* a synchronous op stalls the CPU for exactly one media transfer *)
let test_blkdev_sync_cost () =
  List.iter
    (fun (name, costs) ->
      let m = Machine.create ~costs ~frames:4 ~page_size:256 () in
      let d = Blkdev.create m ~name:"disk" ~irq_line:3 ~blocks:4 ~block_size:256 in
      let f = Physmem.alloc (Machine.phys m) * 256 in
      let clock = Machine.clock m in
      let charged op =
        let before = Clock.now clock in
        op d ~block:1 ~phys_addr:f;
        Clock.now clock - before
      in
      let want = Cost.blk_op costs ~bytes:256 in
      Alcotest.(check int) (name ^ ": write") want (charged Blkdev.write_sync);
      Alcotest.(check int) (name ^ ": read") want (charged Blkdev.read_sync))
    [ ("unit costs", Cost.unit_costs); ("default costs", Cost.default) ]

let test_blkdev_sync_journalled () =
  let m, d = blk_fixture () in
  let clock = Machine.clock m in
  let f = Physmem.alloc (Machine.phys m) * 256 in
  let t0 = Clock.now clock in
  Blkdev.write_sync d ~block:4 ~phys_addr:f;
  Blkdev.read_sync d ~block:4 ~phys_addr:f;
  Alcotest.(check (pair int int)) "blk_issue, blk_complete" (2, 2)
    (Clock.counter clock "blk_issue", Clock.counter clock "blk_complete");
  let op = Cost.blk_op (Machine.costs m) ~bytes:256 in
  let blk =
    List.filter_map
      (fun e ->
        match e.Journal.kind with
        | Journal.Blk_issue -> Some ("issue", e.Journal.info, e.Journal.at - t0)
        | Journal.Blk_complete -> Some ("complete", e.Journal.info, e.Journal.at - t0)
        | _ -> None)
      (Journal.tail (Obs.journal (Clock.obs clock)))
  in
  Alcotest.(check (list (triple string int int)))
    "issued at the stall's start, completed at its end"
    [ ("issue", 4, 0); ("complete", 4, op); ("issue", 4, op); ("complete", 4, 2 * op) ]
    blk;
  Alcotest.(check int) "COMPLETED counts sync ops" 2
    (Machine.io_read m (blk_reg d r_completed))

let test_blkdev_sync_refuses_outstanding () =
  let m, d = blk_fixture () in
  let f = Physmem.alloc (Machine.phys m) * 256 in
  let refused what =
    Alcotest.check_raises what
      (Invalid_argument "Blkdev.write_sync: the ring has work outstanding") (fun () ->
        Blkdev.write_sync d ~block:0 ~phys_addr:f)
  in
  let ring = blk_ring m d ~slots:4 in
  let tail = blk_publish m d ~ring ~slots:4 ~tail:0 [ (blk_write, 2, f) ] in
  refused "descriptor in flight";
  blk_drain m d ~tail;
  (* disabled, the device leaves a published descriptor unfetched *)
  Machine.io_write m (blk_reg d r_ctrl) 0;
  let tail = blk_publish m d ~ring ~slots:4 ~tail [ (blk_read, 2, f) ] in
  refused "descriptor published, not fetched";
  Machine.io_write m (blk_reg d r_ctrl) 3;
  blk_drain m d ~tail;
  Blkdev.write_sync d ~block:0 ~phys_addr:f;
  Alcotest.(check int) "drained ring: sync runs" 3 (Blkdev.completed d)

(* Model property: sync transfers and ring batches, interleaved on one
   device, against a map of block -> fill byte. *)
type blk_step =
  | Sync of (bool * int * int) (* write?, block, fill byte *)
  | Batch of (bool * int * int) list * bool (* descriptors, probe a sync op *)

let gen_blk_program =
  let open QCheck2.Gen in
  let xfer = triple bool (int_bound 7) (int_range 1 255) in
  let step =
    frequency
      [
        (2, map (fun x -> Sync x) xfer);
        (3, map2 (fun ds probe -> Batch (ds, probe)) (list_size (int_range 1 4) xfer) bool);
      ]
  in
  list_size (int_range 1 20) step

let print_blk_program steps =
  let x (w, b, v) = Printf.sprintf "%s b%d=%d" (if w then "w" else "r") b v in
  String.concat "; "
    (List.map
       (function
         | Sync s -> "sync " ^ x s
         | Batch (ds, probe) ->
           Printf.sprintf "batch [%s]%s" (String.concat ", " (List.map x ds))
             (if probe then " +probe" else ""))
       steps)

module Blk_model = Map.Make (Int)

let blkdev_matches_model steps =
  let m, d = blk_fixture () in
  let phys = Machine.phys m in
  let frame () = Physmem.alloc phys * 256 in
  let ring = blk_ring m d ~slots:4 in
  let sync_buf = frame () in
  let bufs = Array.init 4 (fun _ -> frame ()) in
  let model = ref Blk_model.empty and reads = ref 0 and writes = ref 0 in
  let tail = ref 0 in
  (* what a read of [block] must return at this point of the model *)
  let expect block =
    match Blk_model.find_opt block !model with
    | Some v -> String.make 256 (Char.chr v)
    | None -> String.make 256 '\000'
  in
  let apply (write, block, v) buf =
    if write then begin
      phys_put phys (String.make 256 (Char.chr v)) buf;
      model := Blk_model.add block v !model;
      incr writes;
      None
    end
    else begin
      incr reads;
      Some (buf, expect block)
    end
  in
  let check_read = function
    | Some (buf, want) when phys_get phys buf 256 <> want ->
      QCheck2.Test.fail_reportf "read into %#x: model says %C" buf want.[0]
    | _ -> ()
  in
  List.iter
    (function
      | Sync ((write, block, _) as x) ->
        let pending = apply x sync_buf in
        (if write then Blkdev.write_sync else Blkdev.read_sync)
          d ~block ~phys_addr:sync_buf;
        check_read pending
      | Batch (ds, probe) ->
        (* the device serializes in ring order, so the model applies in
           order too; a read's expectation is fixed when it is posted *)
        let pending = List.mapi (fun k x -> apply x bufs.(k)) ds in
        let descs =
          List.mapi
            (fun k (write, block, _) ->
              ((if write then blk_write else blk_read), block, bufs.(k)))
            ds
        in
        tail := blk_publish m d ~ring ~slots:4 ~tail:!tail descs;
        if probe then begin
          match Blkdev.read_sync d ~block:0 ~phys_addr:sync_buf with
          | exception Invalid_argument _ -> ()
          | () -> QCheck2.Test.fail_report "sync op overtook an outstanding batch"
        end;
        blk_drain m d ~tail:!tail;
        List.iter check_read pending)
    steps;
  if (Blkdev.reads d, Blkdev.writes d) <> (!reads, !writes) then
    QCheck2.Test.fail_reportf "device counted %d reads, %d writes; model %d, %d"
      (Blkdev.reads d) (Blkdev.writes d) !reads !writes;
  true

let blkdev_model_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"sync and ring transfers match a map model"
       ~print:print_blk_program gen_blk_program blkdev_matches_model)

let () =
  Alcotest.run "machine"
    [
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "counters sorted" `Quick test_clock_counters_sorted;
          Alcotest.test_case "event names" `Quick test_clock_event_names;
          test_clock_matches_table_model;
        ] );
      ( "physmem",
        [
          Alcotest.test_case "alloc/free" `Quick test_physmem_alloc_free;
          Alcotest.test_case "refcount" `Quick test_physmem_refcount;
          Alcotest.test_case "read/write" `Quick test_physmem_rw;
          Alcotest.test_case "straddling words and copies" `Quick test_physmem_straddle;
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
          Alcotest.test_case "bulk copies allocate only their result" `Quick
            test_machine_copies_allocate_nothing;
          Alcotest.test_case "fault handler resolves" `Quick
            test_machine_fault_handler_resolves;
          Alcotest.test_case "fatal fault" `Quick test_machine_fatal_fault;
          copy_cost_prop;
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
          Alcotest.test_case "nic tx capture keeps the newest" `Quick test_nic_tx_capture;
          Alcotest.test_case "nic rx ring holds rx_slots" `Quick test_nic_rx_ring_capacity;
          Alcotest.test_case "nic rx ring fills in posted order" `Quick
            test_nic_rx_ring_order;
          Alcotest.test_case "nic tx ring full drops the kick" `Quick test_nic_tx_ring_full;
          Alcotest.test_case "nic loopback round allocates the frame" `Quick
            test_nic_loopback_allocates_the_frame;
          Alcotest.test_case "nic raises one interrupt per tick" `Quick
            test_nic_one_interrupt_per_tick;
          Alcotest.test_case "io space checks" `Quick test_io_space_checks;
        ] );
      ( "blkdev",
        [
          Alcotest.test_case "ring dma + irq" `Quick test_blkdev_ring;
          Alcotest.test_case "descriptor errors" `Quick test_blkdev_descriptor_errors;
          Alcotest.test_case "sync round trip" `Quick test_blkdev_sync_round_trip;
          Alcotest.test_case "sync cost" `Quick test_blkdev_sync_cost;
          Alcotest.test_case "sync counted and journalled" `Quick
            test_blkdev_sync_journalled;
          Alcotest.test_case "sync refuses an outstanding ring" `Quick
            test_blkdev_sync_refuses_outstanding;
          blkdev_model_prop;
        ] );
    ]

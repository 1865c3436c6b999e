(* Tests for the extension subsystems: the demand pager (virtual memory
   outside the nucleus), run-time inlining, the two-node cluster and the
   file system. *)

open Paramecium

let sys_fixture () = System.create ~key_bits:384 ()

(* --- pager ----------------------------------------------------------------- *)

let pager_fixture ~budget ~pages () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let pager =
    Pager.create (Kernel.api k) kdom ~disk:(Kernel.disk k) ~resident_budget:budget
      ~backing_pages:pages ~first_block:0
  in
  (k, kdom, pager)

let test_pager_demand_paging () =
  let k, kdom, pager = pager_fixture ~budget:4 ~pages:16 () in
  let m = Kernel.machine k in
  let ps = Machine.page_size m in
  let base = Pager.base pager in
  for p = 0 to 15 do
    Machine.write8 m kdom.Domain.id (base + (p * ps) + 5) (100 + p)
  done;
  Alcotest.(check int) "resident capped at budget" 4 (Pager.resident pager);
  Alcotest.(check bool) "evictions happened" true (Pager.pageouts pager >= 12);
  (* everything reads back correctly through page-ins *)
  for p = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "page %d" p)
      (100 + p)
      (Machine.read8 m kdom.Domain.id (base + (p * ps) + 5))
  done

let test_pager_dirty_tracking () =
  let k, kdom, pager = pager_fixture ~budget:4 ~pages:8 () in
  let m = Kernel.machine k in
  let ps = Machine.page_size m in
  let base = Pager.base pager in
  (* read-only touches never need write-back *)
  for p = 0 to 7 do
    ignore (Machine.read8 m kdom.Domain.id (base + (p * ps)))
  done;
  Alcotest.(check int) "clean pages never written back" 0 (Pager.pageouts pager);
  (* dirty one page; cycling the rest through must write back exactly it *)
  Machine.write8 m kdom.Domain.id base 1;
  for p = 1 to 7 do
    ignore (Machine.read8 m kdom.Domain.id (base + (p * ps)))
  done;
  Alcotest.(check int) "exactly the dirty page written" 1 (Pager.pageouts pager)

let test_pager_hot_set_no_thrash () =
  let k, kdom, pager = pager_fixture ~budget:8 ~pages:32 () in
  let m = Kernel.machine k in
  let ps = Machine.page_size m in
  let base = Pager.base pager in
  (* stream everything once, then hammer a hot set within the budget *)
  for p = 0 to 31 do
    ignore (Machine.read8 m kdom.Domain.id (base + (p * ps)))
  done;
  let faults_before = Pager.faults pager in
  for _ = 1 to 100 do
    for p = 0 to 5 do
      ignore (Machine.read8 m kdom.Domain.id (base + (p * ps)))
    done
  done;
  Alcotest.(check bool) "hot set stabilizes" true (Pager.faults pager - faults_before <= 6)

let test_pager_object_interface () =
  let k, kdom, pager = pager_fixture ~budget:2 ~pages:4 () in
  let m = Kernel.machine k in
  let ctx = Kernel.ctx k kdom in
  let inst = Pager.instance pager in
  Machine.write8 m kdom.Domain.id (Pager.base pager) 1;
  (match Invoke.call_exn ctx inst ~iface:"pager" ~meth:"stats" [] with
  | Value.List [ Value.Int faults; _; _; Value.Int resident ] ->
    Alcotest.(check bool) "faults counted" true (faults >= 1);
    Alcotest.(check int) "resident" 1 resident
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (match Invoke.call_exn ctx inst ~iface:"pager" ~meth:"flush" [] with
  | Value.Int 1 -> ()
  | v -> Alcotest.failf "flush: %s" (Value.to_string v));
  (* after flush the page is clean: a second flush writes nothing *)
  (match Invoke.call_exn ctx inst ~iface:"pager" ~meth:"flush" [] with
  | Value.Int 0 -> ()
  | v -> Alcotest.failf "second flush: %s" (Value.to_string v))

let test_pager_bounds () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  (match
     Pager.create (Kernel.api k) kdom ~disk:(Kernel.disk k) ~resident_budget:0
       ~backing_pages:4 ~first_block:0
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero budget rejected");
  (match
     Pager.create (Kernel.api k) kdom ~disk:(Kernel.disk k) ~resident_budget:2
       ~backing_pages:600 ~first_block:0
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized backing store rejected")

(* the store's device has 512-byte blocks: a pager on it would move an
   eighth of every page *)
let test_pager_rejects_small_blocks () =
  let k = System.kernel (sys_fixture ()) in
  Alcotest.check_raises "512-byte blocks"
    (Invalid_argument "Pager.create: disk block size is not the page size") (fun () ->
      ignore
        (Pager.create (Kernel.api k) (Kernel.kernel_domain k) ~disk:(Kernel.blkdev k)
           ~resident_budget:2 ~backing_pages:4 ~first_block:0))

(* --- inlining ----------------------------------------------------------------- *)

let inline_fixture () =
  let clock = Clock.create () in
  (* default costs: a direct call (8) + guard (1) is cheaper than an
     interface dispatch (14); under unit costs the relation inverts *)
  let ctx = Call_ctx.make ~clock ~costs:Cost.default ~caller_domain:0 in
  let registry = Registry.create () in
  let state = ref 0 in
  let iface =
    Iface.make ~name:"ctr"
      [
        Iface.meth ~name:"incr" ~args:[ Vtype.Tint ] ~ret:Vtype.Tint
          (fun _ctx -> function
            | [ Value.Int by ] ->
              state := !state + by;
              Ok (Value.Int !state)
            | _ -> Error (Oerror.Type_error "incr(int)"));
      ]
  in
  let obj = Instance.create registry ~class_name:"t" ~domain:0 [ iface ] in
  (clock, ctx, obj)

let test_inline_behaves_like_dispatch () =
  let _, ctx, obj = inline_fixture () in
  let fast = Inline.specialize_exn ctx obj ~iface:"ctr" ~meth:"incr" in
  (match fast [ Value.Int 5 ] with
  | Ok (Value.Int 5) -> ()
  | _ -> Alcotest.fail "inlined call wrong");
  (* shared state with the dispatched path *)
  (match Invoke.call_exn ctx obj ~iface:"ctr" ~meth:"incr" [ Value.Int 1 ] with
  | Value.Int 6 -> ()
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (* type errors still caught per call *)
  (match fast [ Value.Str "x" ] with
  | Error (Oerror.Type_error _) -> ()
  | _ -> Alcotest.fail "inlined call must type-check args")

let test_inline_cheaper_than_dispatch () =
  let clock, ctx, obj = inline_fixture () in
  let fast = Inline.specialize_exn ctx obj ~iface:"ctr" ~meth:"incr" in
  let cost f =
    let before = Clock.now clock in
    for _ = 1 to 50 do
      ignore (f ())
    done;
    Clock.now clock - before
  in
  let dispatched =
    cost (fun () -> Invoke.call ctx obj ~iface:"ctr" ~meth:"incr" [ Value.Int 1 ])
  in
  let inlined = cost (fun () -> fast [ Value.Int 1 ]) in
  Alcotest.(check bool)
    (Printf.sprintf "inlined (%d) < dispatched (%d)" inlined dispatched)
    true (inlined < dispatched)

let test_inline_honors_revocation () =
  let _, ctx, obj = inline_fixture () in
  let fast = Inline.specialize_exn ctx obj ~iface:"ctr" ~meth:"incr" in
  Instance.revoke obj;
  (match fast [ Value.Int 1 ] with
  | Error Oerror.Revoked -> ()
  | _ -> Alcotest.fail "inlined call must honor revocation")

let test_inline_missing_method () =
  let _, ctx, obj = inline_fixture () in
  (match Inline.specialize ctx obj ~iface:"ctr" ~meth:"nope" with
  | Error (Oerror.No_such_method _) -> ()
  | _ -> Alcotest.fail "specializing a missing method must fail")

(* --- cluster --------------------------------------------------------------------- *)

let test_cluster_frame_delivery () =
  let cl = Cluster.create () in
  let ka = System.kernel (Cluster.node_a cl) in
  let kb = System.kernel (Cluster.node_b cl) in
  let netb = Cluster.net_b cl in
  let ctx_a = Kernel.ctx ka (Kernel.kernel_domain ka) in
  let ctx_b = Kernel.ctx kb (Kernel.kernel_domain kb) in
  ignore
    (Invoke.call_exn ctx_b netb.System.stack ~iface:"stack" ~meth:"bind_port"
       [ Value.Int 9 ]);
  ignore
    (Invoke.call_exn ctx_a (Cluster.net_a cl).System.stack ~iface:"stack" ~meth:"send"
       [ Value.Int Cluster.addr_b; Value.Int 8; Value.Int 9;
         Stack.view (Bytes.of_string "hi b") ~off:0 ~len:4 ]);
  Cluster.step cl ~ticks:5 ();
  (match
     Invoke.call_exn ctx_b netb.System.stack ~iface:"stack" ~meth:"recv" [ Value.Int 9 ]
   with
  | Value.List [ Value.Pair (Value.Pair (Value.Int src, Value.Int 8), Value.Blob b) ]
    ->
    Alcotest.(check int) "source address" Cluster.addr_a src;
    Alcotest.(check string) "payload" "hi b" (Bytes.to_string b)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  Alcotest.(check int) "one frame ferried" 1 (Cluster.frames_delivered cl)

let test_cluster_shared_authority () =
  let cl = Cluster.create () in
  let a = Cluster.node_a cl and b = Cluster.node_b cl in
  (* a certificate created against A's authority admits the component on B *)
  let image =
    Images.image ~name:"roaming" ~size:1_024 ~type_safe:true (fun api dom ->
        Instance.create api.Api.registry ~class_name:"roaming" ~domain:dom.Domain.id [])
  in
  let image, _ = Images.certify (System.authority a) ~now:0 image in
  let kb = System.kernel b in
  Loader.publish (Kernel.loader kb) image;
  (match
     Loader.load (Kernel.loader kb) ~name:"roaming" ~into:(Kernel.kernel_domain kb)
       ~at:(Path.of_string "/svc/roaming") ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cross-node load failed: %s" (Loader.load_error_to_string e));
  (* but a foreign authority's cert does not *)
  let other = System.create ~seed:31337 ~key_bits:384 () in
  let image2 =
    Images.image ~name:"alien" ~size:1_024 ~type_safe:true (fun api dom ->
        Instance.create api.Api.registry ~class_name:"alien" ~domain:dom.Domain.id [])
  in
  let image2, _ = Images.certify (System.authority other) ~now:0 image2 in
  Loader.publish (Kernel.loader kb) image2;
  (match
     Loader.load (Kernel.loader kb) ~name:"alien" ~into:(Kernel.kernel_domain kb)
       ~at:(Path.of_string "/svc/alien") ()
   with
  | Error (Loader.Validation_failed (Validator.Untrusted_signer _)) -> ()
  | _ -> Alcotest.fail "foreign cert must be refused")

let test_cluster_nodes_isolated () =
  let cl = Cluster.create () in
  let ka = System.kernel (Cluster.node_a cl) in
  let kb = System.kernel (Cluster.node_b cl) in
  (* a name registered on A does not exist on B *)
  let obj =
    Instance.create (Kernel.api ka).Api.registry ~class_name:"only-a"
      ~domain:(Kernel.kernel_domain ka).Domain.id []
  in
  Kernel.register_at ka "/svc/only-a" obj;
  Alcotest.(check bool) "A has it" true
    (Namespace.exists (Directory.namespace (Kernel.directory ka)) (Path.of_string "/svc/only-a"));
  Alcotest.(check bool) "B does not" false
    (Namespace.exists (Directory.namespace (Kernel.directory kb)) (Path.of_string "/svc/only-a"))


(* --- simplefs -------------------------------------------------------------------- *)

let fs_fixture () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let fs = Simplefs.format (Kernel.api k) ~disk:(Kernel.disk k) in
  (k, kdom, Kernel.ctx k kdom, fs)

let test_fs_rejects_small_blocks entry () =
  let k = System.kernel (sys_fixture ()) in
  Alcotest.check_raises "512-byte blocks"
    (Invalid_argument "Simplefs: disk block size is not the page size") (fun () ->
      ignore (entry (Kernel.api k) ~disk:(Kernel.blkdev k)))

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Simplefs.error_to_string e)

let test_fs_files_round_trip () =
  let _, _, ctx, fs = fs_fixture () in
  ok_or_fail (Simplefs.create fs ctx "/hello.txt");
  let n = ok_or_fail (Simplefs.write fs ctx "/hello.txt" ~offset:0 (Bytes.of_string "hello fs")) in
  Alcotest.(check int) "bytes written" 8 n;
  let b = ok_or_fail (Simplefs.read fs ctx "/hello.txt" ~offset:0 ~len:100) in
  Alcotest.(check string) "read back (clamped to size)" "hello fs" (Bytes.to_string b);
  let b = ok_or_fail (Simplefs.read fs ctx "/hello.txt" ~offset:6 ~len:2) in
  Alcotest.(check string) "offset read" "fs" (Bytes.to_string b);
  let is_dir, size = ok_or_fail (Simplefs.stat fs ctx "/hello.txt") in
  Alcotest.(check bool) "not a dir" false is_dir;
  Alcotest.(check int) "size" 8 size

let test_fs_directories () =
  let _, _, ctx, fs = fs_fixture () in
  ok_or_fail (Simplefs.mkdir fs ctx "/etc");
  ok_or_fail (Simplefs.mkdir fs ctx "/etc/conf.d");
  ok_or_fail (Simplefs.create fs ctx "/etc/passwd");
  ok_or_fail (Simplefs.create fs ctx "/etc/conf.d/net");
  Alcotest.(check (list string)) "root listing" [ "etc" ] (ok_or_fail (Simplefs.list fs ctx "/"));
  Alcotest.(check (list string)) "etc listing" [ "conf.d"; "passwd" ]
    (ok_or_fail (Simplefs.list fs ctx "/etc"));
  let is_dir, _ = ok_or_fail (Simplefs.stat fs ctx "/etc/conf.d") in
  Alcotest.(check bool) "dir" true is_dir

let test_fs_errors () =
  let _, _, ctx, fs = fs_fixture () in
  ok_or_fail (Simplefs.mkdir fs ctx "/d");
  ok_or_fail (Simplefs.create fs ctx "/d/f");
  (match Simplefs.create fs ctx "/d/f" with
  | Error (Simplefs.Exists _) -> ()
  | _ -> Alcotest.fail "duplicate create");
  (match Simplefs.read fs ctx "/nope" ~offset:0 ~len:1 with
  | Error (Simplefs.Not_found _) -> ()
  | _ -> Alcotest.fail "missing file");
  (match Simplefs.write fs ctx "/d" ~offset:0 (Bytes.of_string "x") with
  | Error (Simplefs.Is_a_directory _) -> ()
  | _ -> Alcotest.fail "write to dir");
  (match Simplefs.list fs ctx "/d/f" with
  | Error (Simplefs.Not_a_directory _) -> ()
  | _ -> Alcotest.fail "list a file");
  (match Simplefs.remove fs ctx "/d" with
  | Error (Simplefs.Directory_not_empty _) -> ()
  | _ -> Alcotest.fail "remove non-empty dir");
  (match Simplefs.create fs ctx "relative" with
  | Error (Simplefs.Bad_path _) -> ()
  | _ -> Alcotest.fail "relative path");
  (match Simplefs.write fs ctx "/d/f" ~offset:(13 * 4096) (Bytes.of_string "x") with
  | Error Simplefs.File_too_large -> ()
  | _ -> Alcotest.fail "file too large")

let test_fs_remove_frees_space () =
  let _, _, ctx, fs = fs_fixture () in
  (* force the root directory's entry block to exist first: that block
     legitimately stays allocated after the file is removed *)
  ok_or_fail (Simplefs.create fs ctx "/placeholder");
  let before = Simplefs.free_blocks fs in
  ok_or_fail (Simplefs.create fs ctx "/big");
  ignore (ok_or_fail (Simplefs.write fs ctx "/big" ~offset:0 (Bytes.create 20_000)));
  Alcotest.(check bool) "blocks consumed" true (Simplefs.free_blocks fs < before);
  ok_or_fail (Simplefs.remove fs ctx "/big");
  Alcotest.(check int) "blocks released" before (Simplefs.free_blocks fs);
  (* the name can be reused *)
  ok_or_fail (Simplefs.create fs ctx "/big")

let test_fs_sparse_and_multiblock () =
  let _, _, ctx, fs = fs_fixture () in
  ok_or_fail (Simplefs.create fs ctx "/sparse");
  (* write beyond block 0 without touching it: hole reads as zeroes *)
  ignore (ok_or_fail (Simplefs.write fs ctx "/sparse" ~offset:10_000 (Bytes.of_string "end")));
  let b = ok_or_fail (Simplefs.read fs ctx "/sparse" ~offset:0 ~len:4) in
  Alcotest.(check string) "hole is zeroes" "\000\000\000\000" (Bytes.to_string b);
  let b = ok_or_fail (Simplefs.read fs ctx "/sparse" ~offset:10_000 ~len:3) in
  Alcotest.(check string) "tail data" "end" (Bytes.to_string b);
  (* a write spanning a block boundary *)
  let spanning = Bytes.init 8192 (fun i -> Char.chr (i mod 251)) in
  ignore (ok_or_fail (Simplefs.write fs ctx "/sparse" ~offset:4000 spanning));
  let back = ok_or_fail (Simplefs.read fs ctx "/sparse" ~offset:4000 ~len:8192) in
  Alcotest.(check bool) "spanning write round trips" true (Bytes.equal spanning back)

let test_fs_persistence_across_mount () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let fs = Simplefs.format (Kernel.api k) ~disk:(Kernel.disk k) in
  ok_or_fail (Simplefs.mkdir fs ctx "/boot");
  ok_or_fail (Simplefs.create fs ctx "/boot/kernel");
  ignore (ok_or_fail (Simplefs.write fs ctx "/boot/kernel" ~offset:0 (Bytes.of_string "vmlinuz")));
  Simplefs.sync fs;
  (* a completely fresh mount of the same disk sees everything *)
  let fs2 = Simplefs.mount (Kernel.api k) ~disk:(Kernel.disk k) in
  Alcotest.(check (list string)) "listing survives" [ "kernel" ]
    (ok_or_fail (Simplefs.list fs2 ctx "/boot"));
  let b = ok_or_fail (Simplefs.read fs2 ctx "/boot/kernel" ~offset:0 ~len:7) in
  Alcotest.(check string) "data survives" "vmlinuz" (Bytes.to_string b)

let test_fs_object_interface () =
  let k, kdom, ctx, fs = fs_fixture () in
  ignore k;
  let inst = Simplefs.instance (Kernel.api k) kdom fs in
  ignore (Invoke.call_exn ctx inst ~iface:"fs" ~meth:"create" [ Value.Str "/obj" ]);
  (match
     Invoke.call_exn ctx inst ~iface:"fs" ~meth:"write"
       [ Value.Str "/obj"; Value.Int 0; Value.Blob (Bytes.of_string "via object") ]
   with
  | Value.Int 10 | Value.Int 11 -> ()
  | v -> Alcotest.failf "write returned %s" (Value.to_string v));
  (match
     Invoke.call_exn ctx inst ~iface:"fs" ~meth:"read"
       [ Value.Str "/obj"; Value.Int 0; Value.Int 64 ]
   with
  | Value.Blob b -> Alcotest.(check string) "read" "via object" (Bytes.to_string b)
  | v -> Alcotest.failf "read returned %s" (Value.to_string v));
  (match Invoke.call ctx inst ~iface:"fs" ~meth:"read" [ Value.Str "/nope"; Value.Int 0; Value.Int 1 ] with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "missing file must fault")

(* model-based property: random file operations against a string-map model *)
let fs_model_prop =
  let open QCheck2 in
  let gen_op =
    Gen.(
      oneof
        [
          map (fun i -> `Create i) (int_bound 4);
          map2 (fun i s -> `Write (i, s)) (int_bound 4) (string_size (int_range 0 300));
          map (fun i -> `Remove i) (int_bound 4);
          map (fun i -> `Read i) (int_bound 4);
        ])
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:30 ~name:"random ops match a map model"
       Gen.(list_size (int_range 1 25) gen_op)
       (fun ops ->
         let _, _, ctx, fs = fs_fixture () in
         let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
         let name i = Printf.sprintf "/f%d" i in
         List.for_all
           (fun op ->
             match op with
             | `Create i ->
               let p = name i in
               (match (Simplefs.create fs ctx p, Hashtbl.mem model p) with
               | Ok (), false ->
                 Hashtbl.replace model p "";
                 true
               | Error (Simplefs.Exists _), true -> true
               | _ -> false)
             | `Write (i, s) ->
               let p = name i in
               (match (Simplefs.write fs ctx p ~offset:0 (Bytes.of_string s),
                       Hashtbl.find_opt model p)
               with
               | Ok n, Some old ->
                 let updated =
                   if String.length s >= String.length old then s
                   else s ^ String.sub old (String.length s) (String.length old - String.length s)
                 in
                 Hashtbl.replace model p updated;
                 n = String.length s
               | Error (Simplefs.Not_found _), None -> true
               | _ -> false)
             | `Remove i ->
               let p = name i in
               (match (Simplefs.remove fs ctx p, Hashtbl.mem model p) with
               | Ok (), true ->
                 Hashtbl.remove model p;
                 true
               | Error (Simplefs.Not_found _), false -> true
               | _ -> false)
             | `Read i ->
               let p = name i in
               (match (Simplefs.read fs ctx p ~offset:0 ~len:10_000,
                       Hashtbl.find_opt model p)
               with
               | Ok b, Some expected -> String.equal (Bytes.to_string b) expected
               | Error (Simplefs.Not_found _), None -> true
               | _ -> false))
           ops))

(* pager model property: random reads/writes through the pager agree
   with a flat reference array, whatever the eviction pattern *)
let pager_model_prop =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:15 ~name:"paged memory agrees with a flat model"
       Gen.(list_size (int_range 1 120) (triple bool (int_bound 15) (int_bound 255)))
       (fun ops ->
         let k, kdom, pager = pager_fixture ~budget:3 ~pages:16 () in
         let m = Kernel.machine k in
         let ps = Machine.page_size m in
         let base = Pager.base pager in
         let model = Bytes.make (16 * ps) '\000' in
         List.for_all
           (fun (is_write, page, v) ->
             (* touch a fixed in-page offset derived from the value *)
             let off = (page * ps) + (v mod ps) in
             if is_write then begin
               Machine.write8 m kdom.Domain.id (base + off) v;
               Bytes.set model off (Char.chr v);
               true
             end
             else
               Machine.read8 m kdom.Domain.id (base + off)
               = Char.code (Bytes.get model off))
           ops))

let () =
  Alcotest.run "extensions"
    [
      ( "pager",
        [
          Alcotest.test_case "demand paging" `Quick test_pager_demand_paging;
          Alcotest.test_case "dirty tracking" `Quick test_pager_dirty_tracking;
          Alcotest.test_case "hot set no thrash" `Quick test_pager_hot_set_no_thrash;
          Alcotest.test_case "object interface" `Quick test_pager_object_interface;
          Alcotest.test_case "bounds" `Quick test_pager_bounds;
          Alcotest.test_case "rejects 512-byte blocks" `Quick
            test_pager_rejects_small_blocks;
          pager_model_prop;
        ] );
      ( "inline",
        [
          Alcotest.test_case "behaves like dispatch" `Quick
            test_inline_behaves_like_dispatch;
          Alcotest.test_case "cheaper than dispatch" `Quick
            test_inline_cheaper_than_dispatch;
          Alcotest.test_case "honors revocation" `Quick test_inline_honors_revocation;
          Alcotest.test_case "missing method" `Quick test_inline_missing_method;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "frame delivery" `Quick test_cluster_frame_delivery;
          Alcotest.test_case "shared authority" `Quick test_cluster_shared_authority;
          Alcotest.test_case "nodes isolated" `Quick test_cluster_nodes_isolated;
        ] );
      ( "simplefs",
        [
          Alcotest.test_case "files round trip" `Quick test_fs_files_round_trip;
          Alcotest.test_case "directories" `Quick test_fs_directories;
          Alcotest.test_case "errors" `Quick test_fs_errors;
          Alcotest.test_case "remove frees space" `Quick test_fs_remove_frees_space;
          Alcotest.test_case "sparse + multiblock" `Quick test_fs_sparse_and_multiblock;
          Alcotest.test_case "persistence across mount" `Quick
            test_fs_persistence_across_mount;
          Alcotest.test_case "object interface" `Quick test_fs_object_interface;
          Alcotest.test_case "format rejects 512-byte blocks" `Quick
            (test_fs_rejects_small_blocks Simplefs.format);
          Alcotest.test_case "mount rejects 512-byte blocks" `Quick
            (test_fs_rejects_small_blocks Simplefs.mount);
          fs_model_prop;
        ] );
    ]

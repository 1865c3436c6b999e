(* Tests for Pm_store: the DMA block driver (descriptor-ring wrap-around,
   durability at the simulated media), the partition/cache/log layers
   (eviction under a full cache, flush-on-detach durability, recovery),
   the /shared/store factory with cross-domain callers, placement of the
   policy layers, interposition on the block path, the channel-backed
   block proxy, and the KV workload end-to-end over the loopback NIC. *)

open Paramecium

let fixture ?(placement = System.Certified) ?(cache_capacity = 32) () =
  let sys = System.create ~seed:0xBEEF ~key_bits:384 () in
  let k = System.kernel sys in
  let store = System.setup_store sys ~placement ~cache_capacity () in
  (sys, k, store)

let switch_to k dom =
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) dom.Domain.id

let blob s = Value.Blob (Bytes.of_string s)

let block_write ctx inst ~block data =
  match
    Invoke.call ctx inst ~iface:"block" ~meth:"write"
      [ Value.Int block; blob data ]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "block write: %s" (Oerror.to_string e)

let block_read ctx inst ~block =
  match Invoke.call ctx inst ~iface:"block" ~meth:"read" [ Value.Int block ] with
  | Ok (Value.Blob b) -> b
  | Ok v -> Alcotest.failf "block read returned %s" (Value.to_string v)
  | Error e -> Alcotest.failf "block read: %s" (Oerror.to_string e)

let block_flush ctx inst =
  match Invoke.call ctx inst ~iface:"block" ~meth:"flush" [] with
  | Ok (Value.Int n) -> n
  | Ok v -> Alcotest.failf "flush returned %s" (Value.to_string v)
  | Error e -> Alcotest.failf "flush: %s" (Oerror.to_string e)

let block_stats ctx inst =
  match Invoke.call ctx inst ~iface:"block" ~meth:"stats" [] with
  | Ok (Value.List vs) ->
    List.map (function Value.Int n -> n | _ -> Alcotest.fail "int stats") vs
  | _ -> Alcotest.fail "stats failed"

let media_prefix k ~block len =
  String.sub (Blkdev.peek_block (Kernel.blkdev k) block) 0 len

(* --- raw driver --------------------------------------------------------- *)

let test_driver_roundtrip () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let drv = store.System.blk_driver in
  block_write ctx drv ~block:5 "hello-dma";
  Alcotest.(check string)
    "write reached the media" "hello-dma" (media_prefix k ~block:5 9);
  let back = block_read ctx drv ~block:5 in
  Alcotest.(check string)
    "read returns the block" "hello-dma"
    (Bytes.sub_string back 0 9);
  Alcotest.(check int) "device completed two ops" 2 (Blkdev.completed (Kernel.blkdev k));
  Alcotest.(check int) "nothing left in flight" 0 (Blkdev.in_flight (Kernel.blkdev k));
  (* out-of-range rejected at the driver *)
  (match
     Invoke.call ctx drv ~iface:"block" ~meth:"read" [ Value.Int 100_000 ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range read must fail")

let test_ring_wraparound () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let drv = store.System.blk_driver in
  (* 20 blocks through an 8-slot ring: the tail wraps twice and several
     requests are in flight inside each posted window *)
  let n = 20 in
  let pairs =
    List.init n (fun i ->
        Value.Pair
          (Value.Int (400 + i), blob (Printf.sprintf "wrap-%02d" i)))
  in
  (match
     Invoke.call ctx drv ~iface:"blkring" ~meth:"write_many"
       [ Value.List pairs ]
   with
  | Ok (Value.Int written) -> Alcotest.(check int) "all written" n written
  | Ok v -> Alcotest.failf "write_many returned %s" (Value.to_string v)
  | Error e -> Alcotest.failf "write_many: %s" (Oerror.to_string e));
  (* every block made it to the media in order *)
  for i = 0 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "block %d durable" (400 + i))
      (Printf.sprintf "wrap-%02d" i)
      (media_prefix k ~block:(400 + i) 7)
  done;
  let blocks = List.init n (fun i -> Value.Int (400 + i)) in
  (match
     Invoke.call ctx drv ~iface:"blkring" ~meth:"read_many" [ Value.List blocks ]
   with
  | Ok (Value.List datas) ->
    Alcotest.(check int) "all read back" n (List.length datas);
    List.iteri
      (fun i v ->
        match v with
        | Value.Blob b ->
          Alcotest.(check string) "payload" (Printf.sprintf "wrap-%02d" i)
            (Bytes.sub_string b 0 7)
        | _ -> Alcotest.fail "blob expected")
      datas
  | Ok v -> Alcotest.failf "read_many returned %s" (Value.to_string v)
  | Error e -> Alcotest.failf "read_many: %s" (Oerror.to_string e));
  Alcotest.(check int)
    "device saw all 40 ops" 40 (Blkdev.completed (Kernel.blkdev k));
  Alcotest.(check int) "ring drained" 0 (Blkdev.in_flight (Kernel.blkdev k))

(* --- factory + partition ------------------------------------------------ *)

let test_factory_partition_window () =
  let sys, k, _store = fixture () in
  let udom = System.new_domain sys "storeuser" in
  let factory = Kernel.bind k udom "/shared/store" in
  switch_to k udom;
  let uctx = Kernel.ctx k udom in
  (match
     Invoke.call uctx factory ~iface:"store.factory" ~meth:"partition"
       [ Value.Str "p-hi"; Value.Str "/store/blkdrv"; Value.Int 700;
         Value.Int 4 ]
   with
  | Ok (Value.Handle _) -> ()
  | Ok v -> Alcotest.failf "partition returned %s" (Value.to_string v)
  | Error e -> Alcotest.failf "factory partition: %s" (Oerror.to_string e));
  (* the component landed in the caller's domain and under /store *)
  let part = Kernel.bind k udom "/store/p-hi" in
  Alcotest.(check int) "partition lives in the caller's domain" udom.Domain.id
    part.Instance.domain;
  block_write uctx part ~block:0 "windowed";
  switch_to k (Kernel.kernel_domain k);
  Alcotest.(check string)
    "window translated to base 700" "windowed" (media_prefix k ~block:700 8);
  switch_to k udom;
  (match Invoke.call uctx part ~iface:"block" ~meth:"read" [ Value.Int 4 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read past the window must fail");
  switch_to k (Kernel.kernel_domain k)

(* --- cache -------------------------------------------------------------- *)

let test_cache_eviction_when_full () =
  let _sys, k, _store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let factory = Kernel.bind k kdom "/shared/store" in
  ignore
    (Invoke.call_exn ctx factory ~iface:"store.factory" ~meth:"cache"
       [ Value.Str "c-small"; Value.Str "/store/part0"; Value.Int 4 ]);
  let cache = Kernel.bind k kdom "/store/c-small" in
  (* fill the cache with dirty blocks *)
  for i = 0 to 3 do
    block_write ctx cache ~block:(30 + i) (Printf.sprintf "dirty-%d" i)
  done;
  (match block_stats ctx cache with
  | [ _; misses; evictions; writebacks; dirty; capacity ] ->
    Alcotest.(check int) "four misses" 4 misses;
    Alcotest.(check int) "no evictions yet" 0 evictions;
    Alcotest.(check int) "no writebacks yet" 0 writebacks;
    Alcotest.(check int) "four dirty lines" 4 dirty;
    Alcotest.(check int) "line capacity in stats" 4 capacity
  | s -> Alcotest.failf "unexpected stats arity %d" (List.length s));
  Alcotest.(check string)
    "dirty block not yet on media"
    (String.make 7 '\000')
    (media_prefix k ~block:30 7);
  (* a fifth distinct block forces the LRU line (block 30) out *)
  block_write ctx cache ~block:99 "evictor";
  (match block_stats ctx cache with
  | [ _; _; evictions; writebacks; dirty; _ ] ->
    Alcotest.(check int) "one eviction" 1 evictions;
    Alcotest.(check int) "one writeback" 1 writebacks;
    Alcotest.(check int) "still full of dirty lines" 4 dirty
  | _ -> Alcotest.fail "stats failed");
  Alcotest.(check string)
    "evicted block written back through partition to media" "dirty-0"
    (media_prefix k ~block:30 7);
  (* rereading the evicted block misses and refetches from below *)
  let back = block_read ctx cache ~block:30 in
  Alcotest.(check string) "refetched" "dirty-0" (Bytes.sub_string back 0 7);
  (* a hit costs no device op: completed count stays put *)
  let before = Blkdev.completed (Kernel.blkdev k) in
  ignore (block_read ctx cache ~block:30);
  Alcotest.(check int) "hit touches no device" before
    (Blkdev.completed (Kernel.blkdev k))

let test_flush_on_detach_durability () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let cache = store.System.block_cache in
  block_write ctx cache ~block:12 "must-survive";
  Alcotest.(check string)
    "write-back: media still clean"
    (String.make 12 '\000')
    (media_prefix k ~block:12 12);
  let factory = Kernel.bind k kdom "/shared/store" in
  ignore
    (Invoke.call_exn ctx factory ~iface:"store.factory" ~meth:"detach"
       [ Value.Str "cache0" ]);
  Alcotest.(check string)
    "detach flushed the dirty line down to the device" "must-survive"
    (media_prefix k ~block:12 12);
  (* the endpoint is gone and the registry agrees *)
  (match Kernel.bind k kdom "/store/cache0" with
  | exception _ -> ()
  | _ -> Alcotest.fail "/store/cache0 must be unregistered after detach");
  (match Storereg.find ~machine:(Kernel.machine k) "cache0" with
  | Some e ->
    Alcotest.(check bool) "marked detached" true e.Storereg.detached;
    Alcotest.(check bool) "no dangling binding" true (e.Storereg.bound = None)
  | None -> Alcotest.fail "cache0 entry missing");
  (* revoked: the log above it can no longer reach it *)
  match
    Invoke.call ctx store.System.log ~iface:"log" ~meth:"append"
      [ blob "orphan" ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "append through a detached cache must fail"

let test_cache_size_transparent () =
  let _sys, k, store = fixture ~cache_capacity:4 () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  (* size() must be the lower layer's geometry, not the line count: the
     log above computes its capacity from it, so a 4-line cache over a
     256-block partition must report 256, or the log tops out at 3 *)
  (match
     Invoke.call_exn ctx store.System.block_cache ~iface:"block" ~meth:"size" []
   with
  | Value.Int n ->
    Alcotest.(check int) "cache forwards the partition's size" 256 n
  | v -> Alcotest.failf "size returned %s" (Value.to_string v));
  let log = store.System.log in
  for i = 0 to 9 do
    match
      Invoke.call ctx log ~iface:"log" ~meth:"append"
        [ blob (Printf.sprintf "rec-%d" i) ]
    with
    | Ok (Value.Int seq) -> Alcotest.(check int) "sequence number" i seq
    | Ok v -> Alcotest.failf "append returned %s" (Value.to_string v)
    | Error e ->
      Alcotest.failf "append %d must survive cache spill: %s" i
        (Oerror.to_string e)
  done

(* --- log + recovery ----------------------------------------------------- *)

let test_log_append_recover () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let log = store.System.log in
  List.iteri
    (fun i payload ->
      match Invoke.call_exn ctx log ~iface:"log" ~meth:"append" [ blob payload ] with
      | Value.Int seq -> Alcotest.(check int) "sequence numbers" i seq
      | v -> Alcotest.failf "append returned %s" (Value.to_string v))
    [ "alpha"; "beta"; "gamma" ];
  ignore (block_flush ctx log);
  (* a fresh log over the same lower layer recovers the entry count *)
  let api = Kernel.api k in
  let log2 = Blocklog.create api kdom ~name:"log-recovered" ~lower:"/store/cache0" () in
  (match Invoke.call_exn ctx log2 ~iface:"log" ~meth:"recover" [] with
  | Value.Int n -> Alcotest.(check int) "recovered all entries" 3 n
  | v -> Alcotest.failf "recover returned %s" (Value.to_string v));
  match Invoke.call_exn ctx log2 ~iface:"log" ~meth:"get" [ Value.Int 1 ] with
  | Value.Blob b -> Alcotest.(check string) "record intact" "beta" (Bytes.to_string b)
  | v -> Alcotest.failf "get returned %s" (Value.to_string v)

(* a superblock scribbled with a count beyond the log's capacity is
   refused by name, and the log keeps the state it had *)
let test_log_scribbled_superblock () =
  let _sys, k, store = fixture () in
  let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
  let log = store.System.log in
  List.iter
    (fun payload -> ignore (Invoke.call_exn ctx log ~iface:"log" ~meth:"append" [ blob payload ]))
    [ "alpha"; "beta"; "gamma" ];
  ignore (block_flush ctx log);
  let sb = Bytes.make 512 '\000' in
  Bytes.blit_string "PMLG" 0 sb 0 4;
  Bytes.set_int32_be sb 4 1000l;
  block_write ctx store.System.block_cache ~block:0 (Bytes.to_string sb);
  (match Invoke.call ctx log ~iface:"log" ~meth:"recover" [] with
  | Error e ->
    Alcotest.(check string) "named error"
      "fault: log: superblock count 1000 exceeds capacity 255" (Oerror.to_string e)
  | Ok v -> Alcotest.failf "recover accepted the count: %s" (Value.to_string v));
  (match Invoke.call_exn ctx log ~iface:"log" ~meth:"entries" [] with
  | Value.Int n -> Alcotest.(check int) "entries unchanged" 3 n
  | v -> Alcotest.failf "entries returned %s" (Value.to_string v));
  match Invoke.call ctx log ~iface:"log" ~meth:"append" [ blob "delta" ] with
  | Ok (Value.Int seq) -> Alcotest.(check int) "the next append follows" 3 seq
  | Ok v -> Alcotest.failf "append returned %s" (Value.to_string v)
  | Error e -> Alcotest.failf "append after a refused recover: %s" (Oerror.to_string e)

(* --- kv ----------------------------------------------------------------- *)

let kv_get ctx kv key =
  match Invoke.call_exn ctx kv ~iface:"kv" ~meth:"get" [ blob key ] with
  | Value.Pair (Value.Bool found, Value.Blob v) -> (found, Bytes.to_string v)
  | v -> Alcotest.failf "get returned %s" (Value.to_string v)

let test_kv_local_recover () =
  let _sys, k, _store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let api = Kernel.api k in
  let kv = Kv.create api kdom ~name:"kv0" ~log:"/store/log0" () in
  ignore (Invoke.call_exn ctx kv ~iface:"kv" ~meth:"put" [ blob "a"; blob "1" ]);
  ignore (Invoke.call_exn ctx kv ~iface:"kv" ~meth:"put" [ blob "b"; blob "2" ]);
  ignore (Invoke.call_exn ctx kv ~iface:"kv" ~meth:"put" [ blob "a"; blob "3" ]);
  ignore (Invoke.call_exn ctx kv ~iface:"kv" ~meth:"del" [ blob "b" ]);
  Alcotest.(check (pair bool string)) "latest write wins" (true, "3") (kv_get ctx kv "a");
  Alcotest.(check (pair bool string)) "deleted" (false, "") (kv_get ctx kv "b");
  ignore (Invoke.call_exn ctx kv ~iface:"kv" ~meth:"flush" []);
  (* replaying the log rebuilds the same map: puts, overwrites, tombstones *)
  let kv2 = Kv.create api kdom ~name:"kv-recovered" ~log:"/store/log0" () in
  (match Invoke.call_exn ctx kv2 ~iface:"kv" ~meth:"recover" [] with
  | Value.Int live -> Alcotest.(check int) "one live key" 1 live
  | v -> Alcotest.failf "recover returned %s" (Value.to_string v));
  Alcotest.(check (pair bool string)) "recovered value" (true, "3") (kv_get ctx kv2 "a");
  Alcotest.(check (pair bool string)) "tombstone honoured" (false, "") (kv_get ctx kv2 "b")

(* --- placement ---------------------------------------------------------- *)

let test_placement_verified () =
  let _sys, k, store = fixture ~placement:System.Verified () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  block_write ctx store.System.block_cache ~block:3 "verified-path";
  let back = block_read ctx store.System.block_cache ~block:3 in
  Alcotest.(check string) "stack works under Verified placement" "verified-path"
    (Bytes.sub_string back 0 13)

let test_placement_user_domain () =
  let sys = System.create ~seed:0xBEEF ~key_bits:384 () in
  let k = System.kernel sys in
  let sdom = System.new_domain sys "storage" in
  let store = System.setup_store sys ~placement:(System.User sdom) () in
  Alcotest.(check int) "cache lives in the user domain" sdom.Domain.id
    store.System.block_cache.Instance.domain;
  Alcotest.(check int) "driver stays certified in the kernel"
    (Kernel.kernel_domain k).Domain.id store.System.blk_driver.Instance.domain;
  (* a client in a third domain drives the stack across domains *)
  let cdom = System.new_domain sys "client" in
  let cache = Kernel.bind k cdom "/store/cache0" in
  switch_to k cdom;
  let cctx = Kernel.ctx k cdom in
  block_write cctx cache ~block:8 "cross-domain";
  let back = block_read cctx cache ~block:8 in
  switch_to k (Kernel.kernel_domain k);
  Alcotest.(check string) "round-trip across three domains" "cross-domain"
    (Bytes.sub_string back 0 12)

(* --- interposition ------------------------------------------------------ *)

let test_interpose_on_block_path () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let api = Kernel.api k in
  (* interpose on the partition before the cache first resolves it *)
  let target = Kernel.bind k kdom "/store/part0" in
  let agent = Interpose.wrap api kdom ~target () in
  (match Interpose.attach api ~path:"/store/part0" ~agent with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  block_write ctx store.System.block_cache ~block:21 "spied-on";
  ignore (block_flush ctx store.System.block_cache);
  (match Invoke.call_exn ctx agent ~iface:"monitor" ~meth:"calls" [] with
  | Value.Int calls ->
    Alcotest.(check bool) "agent saw the write-back traffic" true (calls > 0)
  | v -> Alcotest.failf "monitor returned %s" (Value.to_string v));
  Alcotest.(check string) "data still reaches the media through the agent"
    "spied-on" (media_prefix k ~block:21 8)

(* --- channel-backed block path ------------------------------------------ *)

let test_storechan_cross_domain () =
  let sys, k, _store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let server = Storechan.create_server api kdom ~target:"/store/cache0" () in
  let cdom = System.new_domain sys "blkclient" in
  let proxy = Storechan.connect server ~name:"proxy0" ~client:cdom () in
  Alcotest.(check int) "proxy lives in the client domain" cdom.Domain.id
    proxy.Instance.domain;
  switch_to k cdom;
  let cctx = Kernel.ctx k cdom in
  block_write cctx proxy ~block:44 "over-the-ring";
  let back = block_read cctx proxy ~block:44 in
  Alcotest.(check string) "round-trip over request/response rings"
    "over-the-ring"
    (Bytes.sub_string back 0 13);
  ignore (block_flush cctx proxy);
  switch_to k kdom;
  Alcotest.(check string) "flush over the ring reached the media"
    "over-the-ring" (media_prefix k ~block:44 13);
  Alcotest.(check bool) "server counted the requests" true
    (Storechan.served server >= 3)

(* --- kv over the network ------------------------------------------------ *)

let test_kv_over_net () =
  let sys = System.create ~seed:0xBEEF ~key_bits:384 () in
  let k = System.kernel sys in
  let kv, client = System.setup_kv sys ~placement:System.Certified ~cache_capacity:32 in
  let kdom = Kernel.kernel_domain k in
  let request ~op ~key value =
    Alcotest.(check bool) "request enqueued" true
      (Kv.send client ~op ~key value);
    Kernel.step k ~ticks:8 ();
    match Kv.replies client with
    | [ Ok r ] -> r
    | [ Error e ] -> Alcotest.fail e
    | rs -> Alcotest.failf "expected one response, got %d" (List.length rs)
  in
  let r = request ~op:Storewire.kv_put ~key:"color" "teal" in
  Alcotest.(check int) "put ok" Storewire.Kvmsg.status_ok r.Storewire.Kvmsg.status;
  let r = request ~op:Storewire.kv_get ~key:"color" "" in
  Alcotest.(check int) "get ok" Storewire.Kvmsg.status_ok r.Storewire.Kvmsg.status;
  Alcotest.(check string) "value over the wire" "teal"
    (Bytes.to_string r.Storewire.Kvmsg.payload);
  let r = request ~op:Storewire.kv_get ~key:"absent" "" in
  Alcotest.(check int) "missing key reported" Storewire.Kvmsg.status_not_found
    r.Storewire.Kvmsg.status;
  let r = request ~op:Storewire.kv_del ~key:"color" "" in
  Alcotest.(check int) "del ok" Storewire.Kvmsg.status_ok r.Storewire.Kvmsg.status;
  let r = request ~op:Storewire.kv_get ~key:"color" "" in
  Alcotest.(check int) "deleted over the wire" Storewire.Kvmsg.status_not_found
    r.Storewire.Kvmsg.status;
  (* the workload journals device + cache events for replay *)
  let ctx = Kernel.ctx k kdom in
  ignore (Invoke.call_exn ctx kv ~iface:"kv" ~meth:"flush" []);
  let counters = (Clock.snapshot (Kernel.clock k)).Clock.counts in
  let count name =
    match List.assoc_opt name counters with Some n -> n | None -> 0
  in
  Alcotest.(check bool) "block issues counted" true (count "blk_issue" > 0);
  Alcotest.(check bool) "cache flush counted" true (count "cache_flush" > 0)

(* --- replay ------------------------------------------------------------- *)

(* every storage component publishes its counters at /stats/store.<name>,
   labeled per kind, queryable one value at a time *)
let test_store_stats_published () =
  let _sys, k, store = fixture ~cache_capacity:4 () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  (* move some counters: one write through the cache, then flush *)
  let cache = Kernel.bind k kdom "/store/cache0" in
  block_write ctx cache ~block:0 "stats probe";
  ignore (block_flush ctx cache);
  let stats = Kernel.bind k kdom "/stats/store.cache0" in
  (match Invoke.call_exn ctx stats ~iface:"stats.store" ~meth:"snapshot" [] with
  | Value.Str s ->
    Alcotest.(check bool) "snapshot names the component" true
      (String.length s >= 12 && String.sub s 0 12 = "store.cache0");
    let has_label l =
      List.exists
        (fun line ->
          String.length line > 2
          && String.trim line <> ""
          && String.length (String.trim line) >= String.length l
          && String.sub (String.trim line) 0 (String.length l) = l)
        (String.split_on_char '\n' s)
    in
    Alcotest.(check bool) "snapshot labels the counters" true
      (has_label "hits" && has_label "writebacks" && has_label "capacity")
  | v -> Alcotest.failf "snapshot returned %s" (Value.to_string v));
  (match
     Invoke.call_exn ctx stats ~iface:"stats.store" ~meth:"value"
       [ Value.Str "capacity" ]
   with
  | Value.Int n -> Alcotest.(check int) "cache capacity published" 4 n
  | v -> Alcotest.failf "value returned %s" (Value.to_string v));
  (match
     Invoke.call_exn ctx stats ~iface:"stats.store" ~meth:"value"
       [ Value.Str "writebacks" ]
   with
  | Value.Int n -> Alcotest.(check bool) "flush counted a writeback" true (n >= 1)
  | v -> Alcotest.failf "value returned %s" (Value.to_string v));
  (* the driver's publication carries its own labels *)
  let drv = Kernel.bind k kdom "/stats/store.blkdrv" in
  (match
     Invoke.call_exn ctx drv ~iface:"stats.store" ~meth:"value"
       [ Value.Str "blk_writes" ]
   with
  | Value.Int n -> Alcotest.(check bool) "driver write counted" true (n >= 1)
  | v -> Alcotest.failf "value returned %s" (Value.to_string v));
  ignore store

(* A request whose key overruns the message is refused before its rid
   is believed: the rid must not re-label what the server journals
   next. *)
let test_kv_truncated_key_keeps_rid () =
  Codec_props.with_tracing true ~rid:99 (fun () ->
      let ctx = Codec_props.ctx () in
      let req =
        Storewire.Kvmsg.build_req ctx ~op:Storewire.kv_get ~key:(Bytes.of_string "abc")
          Bytes.empty
      in
      Bytes.set_uint16_be req 1 200;
      Trace.set_current 17;
      (match Storewire.Kvmsg.parse_req ctx req with
      | Error e -> Alcotest.(check string) "named error" "kv req: truncated key" e
      | Ok _ -> Alcotest.fail "a key overrunning the message must be refused");
      Alcotest.(check int) "ambient rid unchanged" 17 (Trace.current ()))

(* --- the ring and log codecs --------------------------------------------- *)

let gen16 = QCheck2.Gen.int_bound 0xffff
let gen_payload = Codec_props.gen_bytes 64

let blkreq_spec =
  QCheck2.Gen.(
    quad (int_range Storewire.op_read Storewire.op_flush) gen16 (int_bound 0xffff_ffff)
      gen_payload)

let build_blkreq ctx (op, tag, block, payload) =
  Storewire.Blkreq.build ctx ~op ~tag ~block payload

let blkresp_spec = QCheck2.Gen.(triple gen16 (int_bound 0xff) gen_payload)

let build_blkresp ctx (tag, status, payload) =
  Storewire.Blkresp.build ctx ~tag ~status payload

let record_spec =
  QCheck2.Gen.(triple (oneofl [ Storewire.rec_put; Storewire.rec_del ]) gen_payload gen_payload)

let build_record ctx (op, key, value) = Storewire.Record.build ctx ~op ~key value

let kvreq_spec =
  QCheck2.Gen.(triple (int_range Storewire.kv_get Storewire.kv_del) gen_payload gen_payload)

let build_kvreq ctx (op, key, value) = Storewire.Kvmsg.build_req ctx ~op ~key value
let kvresp_spec = QCheck2.Gen.(pair (int_bound 0xff) gen_payload)
let build_kvresp ctx (status, payload) = Storewire.Kvmsg.build_resp ctx ~status payload

let codec_props =
  let open Storewire in
  [
    Codec_props.roundtrip "blkreq round-trip" ~gen_spec:blkreq_spec ~build:build_blkreq
      ~parse:Blkreq.parse
      ~same:(fun (op, tag, block, payload) (r : Blkreq.t) ->
        r.op = op && r.tag = tag && r.block = block && Bytes.equal r.payload payload)
      ~rid_at:(Some Blkreq.header_len);
    Codec_props.hostile "blkreq parse on hostile bytes" ~gen_spec:blkreq_spec
      ~build:build_blkreq ~parse:Blkreq.parse;
    Codec_props.roundtrip "blkresp round-trip" ~gen_spec:blkresp_spec ~build:build_blkresp
      ~parse:Blkresp.parse
      ~same:(fun (tag, status, payload) (r : Blkresp.t) ->
        r.tag = tag && r.status = status && Bytes.equal r.payload payload)
      ~rid_at:None;
    Codec_props.hostile "blkresp parse on hostile bytes" ~gen_spec:blkresp_spec
      ~build:build_blkresp ~parse:Blkresp.parse;
    Codec_props.roundtrip "record round-trip" ~gen_spec:record_spec ~build:build_record
      ~parse:Record.parse
      ~same:(fun (op, key, value) (r : Record.t) ->
        r.op = op && Bytes.equal r.key key && Bytes.equal r.value value)
      ~rid_at:None;
    Codec_props.hostile "record parse on hostile bytes" ~gen_spec:record_spec
      ~build:build_record ~parse:Record.parse;
    Codec_props.roundtrip "kv request round-trip" ~gen_spec:kvreq_spec ~build:build_kvreq
      ~parse:Kvmsg.parse_req
      ~same:(fun (op, key, value) (r : Kvmsg.req) ->
        r.op = op && Bytes.equal r.key key && Bytes.equal r.value value)
      ~rid_at:(Some Kvmsg.req_header_len);
    Codec_props.hostile "kv request parse on hostile bytes" ~gen_spec:kvreq_spec
      ~build:build_kvreq ~parse:Kvmsg.parse_req;
    Codec_props.roundtrip "kv response round-trip" ~gen_spec:kvresp_spec
      ~build:build_kvresp ~parse:Kvmsg.parse_resp
      ~same:(fun (status, payload) (r : Kvmsg.resp) ->
        r.status = status && Bytes.equal r.payload payload)
      ~rid_at:(Some Kvmsg.resp_header_len);
    Codec_props.hostile "kv response parse on hostile bytes" ~gen_spec:kvresp_spec
      ~build:build_kvresp ~parse:Kvmsg.parse_resp;
  ]

(* --- kv against a map model ---------------------------------------------- *)

module Smap = Map.Make (String)

(* the reply a map model expects for one request, and the model after it *)
let kv_model_step model (op, key, value) =
  let open Storewire in
  if op = kv_put then ((Kvmsg.status_ok, ""), Smap.add key value model)
  else if op = kv_get then
    match Smap.find_opt key model with
    | Some v -> ((Kvmsg.status_ok, v), model)
    | None -> ((Kvmsg.status_not_found, ""), model)
  else if Smap.mem key model then ((Kvmsg.status_ok, ""), Smap.remove key model)
  else ((Kvmsg.status_not_found, ""), model)

(* Random put/get/del sequences over six keys, through the net client into
   a store whose 4-line cache spills: every reply's status and payload
   must match the model. *)
let kv_model_prop =
  let request =
    QCheck2.Gen.(
      triple
        (int_range Storewire.kv_get Storewire.kv_del)
        (map (Printf.sprintf "key-%d") (int_bound 5))
        (string_size ~gen:printable (int_bound 24)))
  in
  let print (op, key, value) = Printf.sprintf "(%d, %s, %S)" op key value in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15 ~name:"kv over the net path matches a map model"
       ~print:QCheck2.Print.(list print)
       QCheck2.Gen.(list_size (int_range 1 40) request)
       (fun requests ->
         let sys = System.create ~seed:0xBEEF ~key_bits:384 () in
         let k = System.kernel sys in
         let _kv, client = System.setup_kv sys ~placement:System.Certified ~cache_capacity:4 in
         let step model ((op, key, value) as req) =
           let (status, payload), model = kv_model_step model req in
           if not (Kv.send client ~op ~key value) then
             QCheck2.Test.fail_reportf "%s: request not enqueued" (print req);
           Kernel.step k ~ticks:4 ();
           match Kv.replies client with
           | [ Ok r ] ->
             let got = Bytes.to_string r.Storewire.Kvmsg.payload in
             if r.Storewire.Kvmsg.status <> status || got <> payload then
               QCheck2.Test.fail_reportf "%s: got (%d, %S), expected (%d, %S)" (print req)
                 r.Storewire.Kvmsg.status got status payload;
             model
           | [ Error e ] -> QCheck2.Test.fail_reportf "%s: %s" (print req) e
           | replies ->
             QCheck2.Test.fail_reportf "%s: %d replies" (print req) (List.length replies)
         in
         ignore (List.fold_left step Smap.empty requests);
         true))

let test_kv_scenario_replays () =
  match Replay.record "kv" with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    Alcotest.(check bool) "journal non-empty" true (String.length r.Replay.journal > 0);
    match Replay.replay r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "kv scenario diverged: %s" e)

let () =
  Alcotest.run "store"
    [
      ( "driver",
        [
          Alcotest.test_case "dma round-trip" `Quick test_driver_roundtrip;
          Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
        ] );
      ( "stack",
        [
          Alcotest.test_case "factory partition window" `Quick
            test_factory_partition_window;
          Alcotest.test_case "cache eviction when full" `Quick
            test_cache_eviction_when_full;
          Alcotest.test_case "flush-on-detach durability" `Quick
            test_flush_on_detach_durability;
          Alcotest.test_case "cache size is the lower layer's" `Quick
            test_cache_size_transparent;
          Alcotest.test_case "log append + recover" `Quick test_log_append_recover;
          Alcotest.test_case "log refuses a scribbled superblock" `Quick
            test_log_scribbled_superblock;
          Alcotest.test_case "kv put/get/del + recover" `Quick
            test_kv_local_recover;
        ] );
      ( "composition",
        [
          Alcotest.test_case "verified placement" `Quick test_placement_verified;
          Alcotest.test_case "user-domain placement" `Quick
            test_placement_user_domain;
          Alcotest.test_case "interpose on the block path" `Quick
            test_interpose_on_block_path;
          Alcotest.test_case "stats published at /stats/store" `Quick
            test_store_stats_published;
          Alcotest.test_case "channel-backed proxy" `Quick
            test_storechan_cross_domain;
        ] );
      ( "workload",
        [
          Alcotest.test_case "kv over the net path" `Quick test_kv_over_net;
          Alcotest.test_case "kv scenario replays" `Quick test_kv_scenario_replays;
          kv_model_prop;
        ] );
      ( "codecs",
        Alcotest.test_case "truncated kv key keeps the ambient rid" `Quick
          test_kv_truncated_key_keeps_rid
        :: codec_props );
    ]

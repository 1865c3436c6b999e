(* Tests for Pm_store: the DMA block driver (descriptor-ring wrap-around,
   durability at the simulated media), the partition/cache/log layers
   (eviction under a full cache, flush-on-detach durability, recovery),
   the /shared/store factory with cross-domain callers, placement of the
   policy layers, interposition on the block path, and the KV workload
   end-to-end over the loopback NIC. *)

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

(* The device DMAs a block between the driver's buffer and the media,
   so the driver's CPU touches none of its bytes: a read and a
   full-block write cost the device's [blk_op] and the same descriptor
   work, and charge no access. A short write charges the zeros it pads
   the block with, and nothing else. *)
let test_driver_charges_no_byte () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  switch_to k kdom;
  let ctx = Kernel.ctx k kdom and clock = Kernel.clock k in
  let c = ctx.Call_ctx.costs in
  let drv = store.System.blk_driver in
  let charged meth args =
    let t0 = Clock.now clock and a0 = Call_ctx.accesses ctx in
    ignore (Invoke.call_exn ctx drv ~iface:"block" ~meth args);
    (Clock.now clock - t0, Call_ctx.accesses ctx - a0)
  in
  let read block = charged "read" [ Value.Int block ] in
  let write block data = charged "write" [ Value.Int block; Value.Blob data ] in
  (* the first op fills the TLB for the ring and the buffers *)
  ignore (read 0);
  (* before the device's op: the dispatch, the descriptor's three words
     and the tail doorbell; after it: the completion interrupt's pop-up,
     which reads and acks the status, then the waiter's read of the
     descriptor and its ack *)
  let descriptor_work =
    Cost.dispatch c + (3 * c.Cost.mem_write) + c.Cost.io_write + c.Cost.interrupt
    + c.Cost.proto_thread + c.Cost.io_read + c.Cost.io_write + c.Cost.mem_read
    + c.Cost.io_write
  in
  let op = (Cost.blk_op c ~bytes:512 + descriptor_work, 0) in
  for block = 1 to 4 do
    Alcotest.(check (pair int int)) "a full-block write" op (write block (Bytes.make 512 'w'));
    Alcotest.(check (pair int int)) "a read" op (read block)
  done;
  let pad = 512 - 12 in
  Alcotest.(check (pair int int)) "a short write pays for its pad"
    (fst op + (pad * c.Cost.mem_read), pad)
    (write 5 (Bytes.of_string "twelve-bytes"));
  Alcotest.(check string) "the short write reached the media padded"
    ("twelve-bytes" ^ String.make pad '\000')
    (media_prefix k ~block:5 512)

let test_ring_wraparound () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let drv = store.System.blk_driver in
  (* 20 writes, then 20 reads, through an 8-slot ring: the tail wraps
     twice each way *)
  let n = 20 in
  for i = 0 to n - 1 do
    block_write ctx drv ~block:(400 + i) (Printf.sprintf "wrap-%02d" i)
  done;
  (* every block made it to the media in order *)
  for i = 0 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "block %d durable" (400 + i))
      (Printf.sprintf "wrap-%02d" i)
      (media_prefix k ~block:(400 + i) 7)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check string) "payload" (Printf.sprintf "wrap-%02d" i)
      (Bytes.sub_string (block_read ctx drv ~block:(400 + i)) 0 7)
  done;
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

(* a hit lends the cached line: the cache charges only the dispatch that
   reaches it, a reader that scribbles on what it got changes no line,
   and the log charges what it reads out of the line, the length word
   and the record *)
let test_cache_hit_lends_the_line () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  switch_to k kdom;
  let ctx = Kernel.ctx k kdom and clock = Kernel.clock k in
  let cache = store.System.block_cache in
  block_write ctx cache ~block:7 "lent";
  let t0 = Clock.now clock in
  let got = block_read ctx cache ~block:7 in
  Alcotest.(check int) "a hit costs one dispatch" (Cost.dispatch ctx.Call_ctx.costs)
    (Clock.now clock - t0);
  Bytes.fill got 0 4 'X';
  Alcotest.(check string) "the line is unchanged" "lent"
    (Bytes.sub_string (block_read ctx cache ~block:7) 0 4);
  let log = store.System.log and record = "twenty-one-byte-entry" in
  let seq =
    match Invoke.call_exn ctx log ~iface:"log" ~meth:"append" [ blob record ] with
    | Value.Int seq -> seq
    | v -> Alcotest.failf "append returned %s" (Value.to_string v)
  in
  let read0 = Call_ctx.accesses ctx in
  (match Invoke.call_exn ctx log ~iface:"log" ~meth:"get" [ Value.Int seq ] with
  | Value.Blob b -> Alcotest.(check string) "the record" record (Bytes.to_string b)
  | v -> Alcotest.failf "get returned %s" (Value.to_string v));
  Alcotest.(check int) "get reads the length word and the record"
    (2 + String.length record)
    (Call_ctx.accesses ctx - read0)

(* A write hands the cache its block the way a hit lends one: the cache
   charges its dispatch and the zeros it pads onto a short write, and the
   writer has paid for the bytes it put in the block. The cache still
   keeps its own copy, so the writer's buffer is its own again. *)
let test_cache_write_takes_the_block () =
  let _sys, k, store = fixture () in
  let kdom = Kernel.kernel_domain k in
  switch_to k kdom;
  let ctx = Kernel.ctx k kdom and clock = Kernel.clock k in
  let costs = ctx.Call_ctx.costs in
  let cache = store.System.block_cache in
  (* the cycles and component memory accesses one call charges *)
  let charged inst ~iface ~meth args =
    let t0 = Clock.now clock and a0 = Call_ctx.accesses ctx in
    ignore (Invoke.call_exn ctx inst ~iface ~meth args);
    (Clock.now clock - t0, Call_ctx.accesses ctx - a0)
  in
  let write block data =
    charged cache ~iface:"block" ~meth:"write" [ Value.Int block; Value.Blob data ]
  in
  let full = Bytes.make 512 'a' in
  Alcotest.(check (pair int int)) "a full-block write costs one dispatch"
    (Cost.dispatch costs, 0) (write 9 full);
  Bytes.fill full 0 512 'Z';
  Alcotest.(check string) "scribbling on the writer's buffer changes no line"
    (String.make 512 'a')
    (Bytes.to_string (block_read ctx cache ~block:9));
  let pad = 512 - 12 in
  Alcotest.(check (pair int int)) "a short write pays for its pad"
    (Cost.dispatch costs + (pad * costs.Cost.mem_read), pad)
    (write 10 (Bytes.of_string "twelve-bytes"));
  (* the log writes its whole tail block down on every append; the
     second append fits the tail block the first opened *)
  let log = store.System.log and record = "twenty-one-byte-entry" in
  let append () = charged log ~iface:"log" ~meth:"append" [ blob record ] in
  ignore (append ());
  let written = 2 + String.length record in
  Alcotest.(check (pair int int))
    "an append charges its length word, its record and two dispatches"
    ((2 * Cost.dispatch costs) + (written * costs.Cost.mem_read), written)
    (append ())

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

(* a superblock scribbled with a count beyond the records on the media
   is refused by name, and the log keeps the state it had *)
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
      "fault: log: superblock count 1000 exceeds the 3 records on the media"
      (Oerror.to_string e)
  | Ok v -> Alcotest.failf "recover accepted the count: %s" (Value.to_string v));
  (match Invoke.call_exn ctx log ~iface:"log" ~meth:"entries" [] with
  | Value.Int n -> Alcotest.(check int) "entries unchanged" 3 n
  | v -> Alcotest.failf "entries returned %s" (Value.to_string v));
  match Invoke.call ctx log ~iface:"log" ~meth:"append" [ blob "delta" ] with
  | Ok (Value.Int seq) -> Alcotest.(check int) "the next append follows" 3 seq
  | Ok v -> Alcotest.failf "append returned %s" (Value.to_string v)
  | Error e -> Alcotest.failf "append after a refused recover: %s" (Oerror.to_string e)

(* --- the log over a cut: commit order, packing, crashes ------------------ *)

(* A block layer between a cache and its partition that records the
   block of every write it passes down and, once its budget is spent,
   drops writes as a power cut would: nothing more reaches the media. *)
type cut = { mutable budget : int; mutable passed : int list (* newest first *) }

let cut_layer api dom ~lower =
  let low = Blockif.make_lower api dom lower in
  let c = { budget = max_int; passed = [] } in
  let write ctx block data =
    if c.budget <= 0 then Ok ()
    else begin
      c.budget <- c.budget - 1;
      c.passed <- block :: c.passed;
      Blockif.write low ctx block data
    end
  in
  let iface =
    Blockif.methods ~read:(Blockif.read low) ~write ~flush:(Blockif.flush low)
      ~size:(Blockif.size low)
      ~blocksize:(fun () -> Blockif.block_size)
      ~stats:(fun () -> [])
  in
  ( c,
    Instance.create api.Api.registry ~class_name:"test.cut" ~domain:dom.Domain.id
      [ iface ] )

(* A fresh partition (blocks [512, 512 + count) of the store device),
   cut, [lines]-line cache and log (at [/store/crash<epoch>-log]), named
   by [epoch]: a crash abandons one stack and recovers on the next over
   the same blocks. *)
let cut_stack k ~epoch ~count ~lines =
  let api = Kernel.api k and kdom = Kernel.kernel_domain k in
  let name part = Printf.sprintf "crash%d-%s" epoch part in
  let path part = "/store/" ^ name part in
  Kernel.register_at k (path "part")
    (Partition.create api kdom ~name:(name "part") ~lower:"/store/blkdrv" ~base:512 ~count
       ());
  let c, cut_inst = cut_layer api kdom ~lower:(path "part") in
  Kernel.register_at k (path "cut") cut_inst;
  Kernel.register_at k (path "cache")
    (Block_cache.create api kdom ~name:(name "cache") ~lower:(path "cut")
       ~capacity:lines ());
  let log = Blocklog.create api kdom ~name:(name "log") ~lower:(path "cache") () in
  Kernel.register_at k (path "log") log;
  (c, log)

let log_append ctx log payload =
  Invoke.call ctx log ~iface:"log" ~meth:"append" [ Value.Blob (Bytes.of_string payload) ]

let log_get ctx log seq =
  match Invoke.call ctx log ~iface:"log" ~meth:"get" [ Value.Int seq ] with
  | Ok (Value.Blob b) -> Ok (Bytes.to_string b)
  | Ok v -> Error ("get returned " ^ Value.to_string v)
  | Error e -> Error (Oerror.to_string e)

let log_recover ctx log =
  match Invoke.call ctx log ~iface:"log" ~meth:"recover" [] with
  | Ok (Value.Int n) -> Ok n
  | Ok v -> Error ("recover returned " ^ Value.to_string v)
  | Error e -> Error (Oerror.to_string e)

(* The records reach the device before the superblock that counts them:
   three appends share block 1, and a flush writes it, then block 0. *)
let test_log_flush_commits_superblock_last () =
  let _sys, k, _store = fixture () in
  let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
  let c, log = cut_stack k ~epoch:0 ~count:8 ~lines:4 in
  List.iter
    (fun p -> ignore (Invoke.call_exn ctx log ~iface:"log" ~meth:"append" [ blob p ]))
    [ "alpha"; "beta"; "gamma" ];
  Alcotest.(check (list int)) "appends stay in the cache" [] c.passed;
  let pushed = block_flush ctx log in
  Alcotest.(check (list int)) "device writes: the records, then the superblock" [ 1; 0 ]
    (List.rev c.passed);
  Alcotest.(check int) "flush counts both blocks" 2 pushed

(* Records share blocks: a 4-block window (3 data blocks) holds 100
   records, empty and block-filling ones among them, and a fresh stack
   recovers every one of them. *)
let test_log_packs_records () =
  let _sys, k, _store = fixture () in
  let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
  let _, log = cut_stack k ~epoch:0 ~count:4 ~lines:2 in
  let payload i = if i mod 10 = 0 then "" else Printf.sprintf "record-%03d" i in
  for i = 0 to 99 do
    match log_append ctx log (payload i) with
    | Ok (Value.Int seq) -> Alcotest.(check int) "sequence number" i seq
    | Ok v -> Alcotest.failf "append returned %s" (Value.to_string v)
    | Error e -> Alcotest.failf "append %d: %s" i (Oerror.to_string e)
  done;
  ignore (block_flush ctx log);
  let _, log2 = cut_stack k ~epoch:1 ~count:4 ~lines:2 in
  Alcotest.(check (result int string))
    "recovered every record" (Ok 100) (log_recover ctx log2);
  for i = 0 to 99 do
    Alcotest.(check (result string string))
      "record intact" (Ok (payload i)) (log_get ctx log2 i)
  done;
  (* the uniform block view is indexed by record: read i is the block
     that holds record i *)
  let held = Bytes.to_string (block_read ctx log2 ~block:57) in
  Alcotest.(check bool) "the block holds its record" true
    (List.exists
       (fun off -> String.sub held off 10 = payload 57)
       (List.init (String.length held - 9) Fun.id));
  (* the largest record fills a block alone; the window has none left *)
  (match log_append ctx log2 (String.make 510 'x') with
  | Error e -> Alcotest.(check string) "full" "fault: log: full" (Oerror.to_string e)
  | Ok v -> Alcotest.failf "append past the window returned %s" (Value.to_string v));
  match log_append ctx log2 (String.make 511 'x') with
  | Error e ->
    Alcotest.(check string)
      "too large" "fault: log: record exceeds block" (Oerror.to_string e)
  | Ok v -> Alcotest.failf "a 511-byte record returned %s" (Value.to_string v)

type log_op =
  | Append of int (* payload length *)
  | Fill (* a payload that exactly fills the tail block *)
  | Get of int
  | Flush
  | Recover
  | Crash of int (* a flush cut after k device writes, then a fresh stack recovers *)

let print_log_op = function
  | Append n -> Printf.sprintf "Append %d" n
  | Fill -> "Fill"
  | Get i -> Printf.sprintf "Get %d" i
  | Flush -> "Flush"
  | Recover -> "Recover"
  | Crash k -> Printf.sprintf "Crash %d" k

let gen_log_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun n -> Append n) (int_range 0 24));
        (2, map (fun n -> Append n) (int_range 0 Blocklog.max_record));
        (1, map (fun n -> Append n) (oneofl [ 0; 126; 254; Blocklog.max_record ]));
        (1, pure Fill);
        (3, map (fun i -> Get i) nat);
        (2, pure Flush);
        (1, pure Recover);
        (2, map (fun k -> Crash k) (int_range 0 6));
      ])

(* the model's layout: the block and the bytes used in it after the
   records of these lengths, the superblock counting as a full block *)
let layout lengths =
  List.fold_left
    (fun (block, used) n ->
      let need = 2 + n in
      if used + need <= Blockif.block_size then (block, used + need)
      else (block + 1, need))
    (0, Blockif.block_size) lengths

(* Random appends, gets, flushes, recovers and crashes over a log on a
   1-4-line cache and an 8-block window, against a list model. A crash
   cuts a flush after k device writes and recovers on a fresh partition,
   cache and log over the same blocks: the count must be the old one or
   the new one, and every record below it intact. *)
let crash_cut_prop =
  let count = 8 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"a log cut mid-flush recovers its last committed prefix"
       ~print:QCheck2.Print.(pair int (list print_log_op))
       QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 1 40) gen_log_op))
       (fun (lines, ops) ->
         let sys = System.create ~seed:0xBEEF ~key_bits:384 () in
         let k = System.kernel sys in
         ignore (System.setup_store sys ~placement:System.Certified ());
         let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
         let fail op fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) (print_log_op op) in
         (* records oldest first, the count made durable, appends made *)
         let records = ref [] and committed = ref 0 and made = ref 0 and epoch = ref 0 in
         let stack = ref (cut_stack k ~epoch:0 ~count ~lines) in
         let check_recovered op n =
           records := List.filteri (fun i _ -> i < n) !records;
           committed := n;
           List.iteri
             (fun i want ->
               match log_get ctx (snd !stack) i with
               | Ok got when got = want -> ()
               | Ok got ->
                 fail op "record %d reads %d bytes, not the %d appended" i
                   (String.length got) (String.length want)
               | Error e -> fail op "record %d: %s" i e)
             !records
         in
         let step op =
           let cut, log = !stack in
           let n = List.length !records in
           match op with
           | Append _ | Fill -> (
             let block, used = layout (List.map String.length !records) in
             let len =
               match op with
               | Append len -> len
               | _ ->
                 if used + 2 <= Blockif.block_size then Blockif.block_size - used - 2
                 else Blocklog.max_record
             in
             let payload =
               String.init len (fun j -> Char.chr (((!made * 37) + (j * 11)) land 0xff))
             in
             incr made;
             let fits = used + 2 + len <= Blockif.block_size || block + 1 < count in
             match log_append ctx log payload with
             | Ok (Value.Int seq) when fits && seq = n ->
               records := !records @ [ payload ]
             | Ok v -> fail op "append returned %s with %d records" (Value.to_string v) n
             | Error e when (not fits) && Oerror.to_string e = "fault: log: full" -> ()
             | Error e -> fail op "%s" (Oerror.to_string e))
           | Get i -> (
             let seq = if n = 0 then 0 else i mod n in
             match (log_get ctx log seq, List.nth_opt !records seq) with
             | Ok got, Some want when got = want -> ()
             | Error _, None -> ()
             | Ok got, _ -> fail op "record %d reads %d bytes" seq (String.length got)
             | Error e, _ -> fail op "%s" e)
           | Flush -> (
             match Invoke.call ctx log ~iface:"block" ~meth:"flush" [] with
             | Ok _ -> committed := n
             | Error e -> fail op "%s" (Oerror.to_string e))
           | Recover -> (
             match log_recover ctx log with
             | Ok got when got = !committed -> check_recovered op got
             | Ok got -> fail op "recovered %d records, committed %d" got !committed
             | Error e -> fail op "%s" e)
           | Crash budget -> (
             cut.budget <- budget;
             cut.passed <- [];
             (match Invoke.call ctx log ~iface:"block" ~meth:"flush" [] with
             | Ok _ -> ()
             | Error e -> fail op "cut flush: %s" (Oerror.to_string e));
             let want = if List.mem 0 cut.passed then n else !committed in
             incr epoch;
             stack := cut_stack k ~epoch:!epoch ~count ~lines;
             match log_recover ctx (snd !stack) with
             | Ok got when got = want -> check_recovered op got
             | Ok got -> fail op "recovered %d records, expected %d" got want
             | Error e -> fail op "%s" e)
         in
         List.iter step ops;
         true))

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
  ignore (block_flush cctx cache);
  switch_to k (Kernel.kernel_domain k);
  Alcotest.(check string) "round-trip across three domains" "cross-domain"
    (Bytes.sub_string back 0 12);
  Alcotest.(check string) "a flush from the client domain reached the media"
    "cross-domain" (media_prefix k ~block:8 12)

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

let gen_payload = Codec_props.gen_bytes 64

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

(* --- kv over a cut, through the net path ------------------------------------ *)

type kv_op =
  | Put of string * int (* key, value length *)
  | Del of string
  | Get of string
  | Flush_kv
  | Crash_kv of int (* a flush cut after k device writes, then a fresh kv recovers *)

let kv_keys = List.init 6 (Printf.sprintf "key-%d")

let print_kv_op = function
  | Put (key, n) -> Printf.sprintf "Put (%s, %d)" key n
  | Del key -> "Del " ^ key
  | Get key -> "Get " ^ key
  | Flush_kv -> "Flush"
  | Crash_kv k -> Printf.sprintf "Crash %d" k

let gen_kv_op =
  let key = QCheck2.Gen.oneofl kv_keys in
  QCheck2.Gen.(
    frequency
      [
        (5, map2 (fun key n -> Put (key, n)) key (int_range 0 24));
        (2, map2 (fun key n -> Put (key, n)) key (int_range 0 400));
        (2, map (fun key -> Del key) key);
        (3, map (fun key -> Get key) key);
        (2, pure Flush_kv);
        (2, map (fun k -> Crash_kv k) (int_range 0 6));
      ])

(* Random puts, dels, gets and flushes over six keys, sent through the
   KV client over the loopback net path to a store whose 1-4-line cache
   sits on a cut layer over a 32-block partition. A crash cuts a flush
   request after k device writes, then a fresh partition, cache, log
   and kv recover over the same blocks and serve the port. The gets of
   every key must then return the model map whole: as of the cut flush
   if its superblock reached the device, as of the last completed flush
   if not, and never a mix. Every other reply matches the model. *)
let kv_crash_cut_prop =
  let count = 32 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"a kv cut mid-flush recovers a whole committed map"
       ~print:QCheck2.Print.(pair int (list print_kv_op))
       QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 1 30) gen_kv_op))
       (fun (lines, ops) ->
         let sys = System.create ~seed:0xBEEF ~key_bits:384 () in
         let k = System.kernel sys in
         let net =
           System.setup_networking sys ~placement:System.Certified ~addr:42 ~loopback:true ()
         in
         let nsc, _ = System.channel_net sys net () in
         ignore (System.setup_store sys ~placement:System.Certified ());
         let api = Kernel.api k and kdom = Kernel.kernel_domain k in
         let ctx = Kernel.ctx k kdom in
         let fail op fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) (print_kv_op op) in
         (* a fresh store over the window, served on port 70 *)
         let open_kv epoch =
           let cut, _ = cut_stack k ~epoch ~count ~lines in
           let kv =
             Kv.create api kdom ~name:(Printf.sprintf "kv%d" epoch)
               ~log:(Printf.sprintf "/store/crash%d-log" epoch) ()
           in
           (cut, kv)
         in
         let serve kv =
           match Kv.serve api kdom ~kv ~net:nsc ~port:70 () with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "serve: %s" (Oerror.to_string e)
         in
         let cut, kv = open_kv 0 in
         serve kv;
         let cut = ref cut in
         let client =
           match
             Kv.client api (System.new_domain sys "kvclient") ~net:nsc ~port:71 ~dst:42 ~dport:70
           with
           | Ok c -> c
           | Error e -> Alcotest.failf "client: %s" (Oerror.to_string e)
         in
         let request op ~code ~key value =
           if not (Kv.send client ~op:code ~key value) then fail op "request not enqueued";
           Kernel.step k ~ticks:4 ();
           match Kv.replies client with
           | [ Ok r ] -> (r.Storewire.Kvmsg.status, Bytes.to_string r.Storewire.Kvmsg.payload)
           | [ Error e ] -> fail op "%s" e
           | replies -> fail op "%d replies" (List.length replies)
         in
         let expect op what (status, payload) (want_status, want) =
           if status <> want_status || payload <> want then
             fail op "%s: got (%d, %d bytes), expected (%d, %d bytes)" what status
               (String.length payload) want_status (String.length want)
         in
         let ok = (Storewire.Kvmsg.status_ok, "") in
         (* the map the store answers for, the map the last completed
            flush made durable, values made, crashes *)
         let model = ref Smap.empty and durable = ref Smap.empty in
         let made = ref 0 and epoch = ref 0 in
         let get_reply m key = fst (kv_model_step m (Storewire.kv_get, key, "")) in
         let exchange op what ((code, key, value) as req) =
           let want, next = kv_model_step !model req in
           expect op what (request op ~code ~key value) want;
           model := next
         in
         let step op =
           match op with
           | Put (key, n) ->
             let value =
               String.init n (fun j -> Char.chr (((!made * 37) + (j * 11)) land 0xff))
             in
             incr made;
             exchange op "put" (Storewire.kv_put, key, value)
           | Del key -> exchange op "del" (Storewire.kv_del, key, "")
           | Get key -> exchange op "get" (Storewire.kv_get, key, "")
           | Flush_kv ->
             expect op "flush" (request op ~code:Storewire.kv_flush ~key:"" "") ok;
             durable := !model
           | Crash_kv budget ->
             !cut.budget <- budget;
             !cut.passed <- [];
             expect op "cut flush" (request op ~code:Storewire.kv_flush ~key:"" "") ok;
             let committed = if List.mem 0 !cut.passed then !model else !durable in
             incr epoch;
             let fresh_cut, fresh = open_kv !epoch in
             (match Invoke.call ctx fresh ~iface:"kv" ~meth:"recover" [] with
             | Ok (Value.Int live) when live = Smap.cardinal committed -> ()
             | Ok v ->
               fail op "recover returned %s, %d keys committed" (Value.to_string v)
                 (Smap.cardinal committed)
             | Error e -> fail op "recover: %s" (Oerror.to_string e));
             (match Netstack_chan.unbind nsc ~port:70 with
             | Ok () -> ()
             | Error e -> fail op "unbind: %s" e);
             serve fresh;
             cut := fresh_cut;
             let recovered =
               List.map (fun key -> (key, request op ~code:Storewire.kv_get ~key "")) kv_keys
             in
             let whole m = List.for_all (fun (key, reply) -> reply = get_reply m key) recovered in
             if not (whole committed) then
               fail op "the recovered map is %s"
                 (if whole !model then "the cut flush's, whose superblock was lost"
                  else if whole !durable then "the last flush's, though the cut flush committed"
                  else "neither flush's whole map");
             model := committed;
             durable := committed
         in
         List.iter step ops;
         true))

let replays name =
  match Replay.record name with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "journal non-empty" true (String.length r.Replay.journal > 0);
    (match Replay.replay r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s scenario diverged: %s" name e);
    r

let test_kv_scenario_replays () = ignore (replays "kv")

(* the recording that covers the device path: its gets miss the 2-line
   cache and its evictions write back, so the device carries transfers *)
let test_kv_spill_scenario_replays () =
  let r = replays "kv-spill" in
  Alcotest.(check bool) "the device carried transfers" true
    (List.exists
       (fun l -> List.mem "blk-issue" (String.split_on_char ' ' l))
       (String.split_on_char '\n' r.Replay.journal))

let () =
  Alcotest.run "store"
    [
      ( "driver",
        [
          Alcotest.test_case "dma round-trip" `Quick test_driver_roundtrip;
          Alcotest.test_case "the driver charges no byte it DMAs" `Quick
            test_driver_charges_no_byte;
          Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
        ] );
      ( "stack",
        [
          Alcotest.test_case "factory partition window" `Quick
            test_factory_partition_window;
          Alcotest.test_case "cache eviction when full" `Quick
            test_cache_eviction_when_full;
          Alcotest.test_case "a cache write takes the block" `Quick
            test_cache_write_takes_the_block;
          Alcotest.test_case "a cache hit lends the line" `Quick
            test_cache_hit_lends_the_line;
          Alcotest.test_case "flush-on-detach durability" `Quick
            test_flush_on_detach_durability;
          Alcotest.test_case "cache size is the lower layer's" `Quick
            test_cache_size_transparent;
          Alcotest.test_case "log append + recover" `Quick test_log_append_recover;
          Alcotest.test_case "log refuses a scribbled superblock" `Quick
            test_log_scribbled_superblock;
          Alcotest.test_case "log flush commits the superblock last" `Quick
            test_log_flush_commits_superblock_last;
          Alcotest.test_case "log packs records into blocks" `Quick
            test_log_packs_records;
          crash_cut_prop;
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
        ] );
      ( "workload",
        [
          Alcotest.test_case "kv over the net path" `Quick test_kv_over_net;
          Alcotest.test_case "kv scenario replays" `Quick test_kv_scenario_replays;
          Alcotest.test_case "kv-spill scenario replays" `Quick
            test_kv_spill_scenario_replays;
          kv_model_prop;
          kv_crash_cut_prop;
        ] );
      ( "codecs",
        Alcotest.test_case "truncated kv key keeps the ambient rid" `Quick
          test_kv_truncated_key_keeps_rid
        :: codec_props );
    ]

(* Parallel programming support — the application area Paramecium was
   aimed at ("a prototype kernel ... intended to provide support for
   parallel programming", §1, building on the active-message work the
   authors cite).

   A master partitions a dot-product across worker threads in separate
   protection domains. Workers read their slice from *shared* pages
   (allocated Shared, mapped read-only into each worker), compute, then
   deliver their partial result with an active message: a software trap
   whose handler runs as a pop-up thread in the master's domain and folds
   the result into the accumulator. The handlers never block, so every
   pop-up completes on the proto-thread fast path — the cheap case the
   design optimizes for — while the master sleeps on an ivar that the
   last handler fills.

   Run with: dune exec examples/parallel.exe *)

open Paramecium

let say fmt = Printf.printf (fmt ^^ "\n%!")

let vector_len = 1024
let workers = 4
let result_trap = 9 (* software trap vector used as the active-message door *)

let () =
  let sys = System.create ~seed:3 () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let machine = Kernel.machine k in
  let vmem = Kernel.vmem k in
  let sched = Kernel.sched k in

  (* -- shared data ---------------------------------------------------- *)
  (* two vectors of 32-bit ints in shared pages, written by the master *)
  let bytes_needed = vector_len * 4 * 2 in
  let pages = (bytes_needed + Machine.page_size machine - 1) / Machine.page_size machine in
  let base = Vmem.alloc_pages vmem kdom ~count:pages ~sharing:Vmem.Shared in
  let addr_a i = base + (i * 4) in
  let addr_b i = base + (vector_len * 4) + (i * 4) in
  let rng = Prng.create ~seed:99 in
  let expected = ref 0 in
  for idx = 0 to vector_len - 1 do
    let a = Prng.int rng 100 and b = Prng.int rng 100 in
    Machine.write32 machine kdom.Domain.id (addr_a idx) a;
    Machine.write32 machine kdom.Domain.id (addr_b idx) b;
    expected := !expected + (a * b)
  done;
  say "master wrote 2x%d ints into %d shared pages (expected dot=%d)" vector_len pages
    !expected;

  (* -- active-message door -------------------------------------------- *)
  let accumulator = ref 0 in
  let arrived = ref 0 in
  let all_done = Sync.Ivar.create () in
  ignore
    (Events.register_popup (Kernel.events k) (Events.Trap result_trap) ~domain:kdom
       ~sched ~priority:0 (fun partial ->
         (* pop-up thread in the master's domain: fold the partial in *)
         accumulator := !accumulator + partial;
         incr arrived;
         if !arrived = workers then Sync.Ivar.fill all_done !accumulator));

  (* -- workers ---------------------------------------------------------- *)
  let slice = vector_len / workers in
  for w = 0 to workers - 1 do
    let wdom = Kernel.create_domain k ~name:(Printf.sprintf "worker%d" w) () in
    (* map the shared vectors read-only into the worker's context *)
    let wbase =
      Vmem.map_shared vmem ~from_dom:kdom ~vaddr:base ~count:pages ~into:wdom
        ~prot:Mmu.Read_only
    in
    let waddr_a i = wbase + (i * 4) in
    let waddr_b i = wbase + (vector_len * 4) + (i * 4) in
    ignore
      (Scheduler.spawn sched ~name:(Printf.sprintf "worker%d" w) ~domain:wdom.Domain.id
         (fun () ->
           let lo = w * slice in
           let hi = lo + slice - 1 in
           let partial = ref 0 in
           for idx = lo to hi do
             let a = Machine.read32 machine wdom.Domain.id (waddr_a idx) in
             let b = Machine.read32 machine wdom.Domain.id (waddr_b idx) in
             partial := !partial + (a * b);
             (* cooperate occasionally so workers interleave *)
             if idx mod 128 = 0 then Scheduler.yield ()
           done;
           (* active message back to the master *)
           ignore (Machine.raise_trap machine result_trap !partial)))
  done;

  (* -- master waits ------------------------------------------------------ *)
  let result = ref None in
  ignore
    (Scheduler.spawn sched ~name:"master" ~domain:kdom.Domain.id (fun () ->
         result := Some (Sync.Ivar.read all_done)));
  ignore (Kernel.run k);

  (match !result with
  | Some dot when dot = !expected -> say "dot product = %d  (matches)" dot
  | Some dot -> failwith (Printf.sprintf "wrong result %d, expected %d" dot !expected)
  | None -> failwith "master never woke");

  let st what = Scheduler.stats sched what in
  say "threads: %d spawned, %d pop-ups (%d fast-path, %d promoted), %d switches"
    (st `Spawned) (st `Popups) (st `Popup_fast) (st `Promotions) (st `Switches);
  say "context switches: %d; cycles: %d"
    (Clock.read (Kernel.clock k) Clock.Context_switch)
    (Clock.now (Kernel.clock k));
  say "parallel done"

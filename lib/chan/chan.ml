module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Physmem = Pm_machine.Physmem
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost
module Obs = Pm_obs.Obs
module Domain = Pm_nucleus.Domain
module Vmem = Pm_nucleus.Vmem
module Events = Pm_nucleus.Events
module Scheduler = Pm_threads.Scheduler
module Sync = Pm_threads.Sync

module Cpu = Pm_machine.Cpu

type mode = Doorbell | Poll

let doorbell_vec = 29
let magic = 0xC4A70001
let header_bytes = 32

(* SPARC-era line size; what one cross-CPU transfer moves *)
let cacheline_bytes = 64

(* Cache lines a message of [len] payload bytes drags across CPUs: the
   length word plus payload, plus one line for the published index word
   the other side re-reads. The bench asserts the cross-CPU gap equals
   exactly this times {!Cost.t.cacheline}. *)
let lines_of_msg len = 1 + ((4 + len + cacheline_bytes - 1) / cacheline_bytes)

(* header word offsets, in bytes *)
let off_magic = 0
let off_slots = 4
let off_slot_size = 8
let off_tail = 12
let off_head = 16
let off_armed = 20

type stats = {
  sends : int;
  recvs : int;
  doorbells : int;
  full_blocks : int;
  empty_blocks : int;
  drops : int;
  bad_lengths : int;
}

type t = {
  machine : Machine.t;
  vmem : Vmem.t;
  chan_name : string;
  chan_id : int;
  n_slots : int;
  sz_slot : int;
  producer : Domain.t;
  mutable consumer : Domain.t option;
  prod_base : int;
  n_pages : int;
  (* physical base address of each ring page: the shared frames both
     endpoints resolve to through their own mappings *)
  phys_pages : int array;
  mutable chan_mode : mode;
  (* each side's private copy of its own free-running index; the shared
     header word is the published copy the other side reads *)
  mutable tail_local : int;
  mutable head_local : int;
  not_full : Sync.Waitq.t;
  not_empty : Sync.Waitq.t;
  mutable sends : int;
  mutable recvs : int;
  mutable doorbells : int;
  mutable full_blocks : int;
  mutable empty_blocks : int;
  mutable drops : int;
  mutable bad_lengths : int;
  mutable send_ctxs : int list;
      (* distinct MMU contexts observed sending, newest first — a plain
         store per new context, read by the composition linter's SPSC
         ownership check *)
  mutable ring_group : (string * int) option;
      (* set when this ring is a per-producer sub-ring of an MPSC group:
         (group name, owning MMU context). The linter then polices the
         sub-ring discipline — only the owner may enqueue — instead of
         the global single-producer rule. *)
}

(* One machine's rings, newest first, for the composition linter's
   whole-system pass, and the id counter both they and MPSC groups draw
   from, so ids on a shared doorbell vector never collide. Kept in the
   machine: a dropped system takes its rings with it. *)
type rings = { mutable next_id : int; mutable rings : t list }

let rings_key : rings Type.Id.t = Type.Id.make ()
let rings_of machine =
  Machine.local machine rings_key (fun () -> { next_id = 1; rings = [] })

let fresh_id machine =
  let r = rings_of machine in
  let id = r.next_id in
  r.next_id <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Shared-memory access: addresses resolve through the frame table     *)
(* captured at creation; cycle charges are explicit so that streaming  *)
(* payload traffic costs exactly one bus access per byte per side.     *)
(* ------------------------------------------------------------------ *)

let phys_addr t off =
  let ps = Machine.page_size t.machine in
  t.phys_pages.(off / ps) + (off mod ps)

(* header and length words are 4-aligned and never straddle a page *)
let read_word t off =
  Clock.advance (Machine.clock t.machine) (Machine.costs t.machine).Cost.mem_read;
  Physmem.read32 (Machine.phys t.machine) (phys_addr t off)

let write_word t off v =
  Clock.advance (Machine.clock t.machine) (Machine.costs t.machine).Cost.mem_write;
  Physmem.write32 (Machine.phys t.machine) (phys_addr t off) v

(* payload copies: one blit per ring page the bytes cross *)
let blit t ~to_ring off b len =
  let ps = Machine.page_size t.machine and phys = Machine.phys t.machine in
  let rec go d =
    if d < len then begin
      let n = min (len - d) (ps - ((off + d) mod ps)) in
      let pa = phys_addr t (off + d) in
      if to_ring then Physmem.write_bytes phys pa b d n
      else Physmem.read_bytes phys pa b d n;
      go (d + n)
    end
  in
  go 0

let write_bytes t ~account off (b : bytes) =
  let len = Bytes.length b in
  if account && len > 0 then
    Clock.advance (Machine.clock t.machine)
      (len * (Machine.costs t.machine).Cost.mem_write);
  blit t ~to_ring:true off b len

let read_bytes t ~account off len =
  if account && len > 0 then
    Clock.advance (Machine.clock t.machine)
      (len * (Machine.costs t.machine).Cost.mem_read);
  let b = Bytes.create len in
  blit t ~to_ring:false off b len;
  b

let slot_off t i = header_bytes + (i mod t.n_slots * (4 + t.sz_slot))

(* ------------------------------------------------------------------ *)
(* Tracing: one span per enqueue/dequeue/doorbell, booked with a single
   simulated store, all behind the one enabled flag.                   *)
(* ------------------------------------------------------------------ *)

let with_span t ~domain ~meth f =
  Clock.span (Machine.clock t.machine) ~costs:(Machine.costs t.machine) ~domain
    ~layer:"chan" ~obj:t.chan_name ~iface:"chan" ~meth f

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create machine vmem ?name ?(slots = 64) ?(slot_size = 1024) ?(mode = Doorbell)
    ~producer () =
  if slots <= 0 then invalid_arg "Chan.create: slots must be positive";
  if slot_size <= 0 || slot_size mod 4 <> 0 then
    invalid_arg "Chan.create: slot_size must be a positive multiple of 4";
  let chan_id = fresh_id machine in
  let name = match name with Some n -> n | None -> Printf.sprintf "chan%d" chan_id in
  let ps = Machine.page_size machine in
  let bytes_needed = header_bytes + (slots * (4 + slot_size)) in
  let n_pages = (bytes_needed + ps - 1) / ps in
  let prod_base = Vmem.alloc_pages vmem producer ~count:n_pages ~sharing:Vmem.Shared in
  let phys_pages =
    Array.init n_pages (fun i ->
        Vmem.phys_of vmem producer ~vaddr:(prod_base + (i * ps)))
  in
  let t =
    {
      machine;
      vmem;
      chan_name = name;
      chan_id;
      n_slots = slots;
      sz_slot = slot_size;
      producer;
      consumer = None;
      prod_base;
      n_pages;
      phys_pages;
      chan_mode = mode;
      tail_local = 0;
      head_local = 0;
      not_full = Sync.Waitq.create ();
      not_empty = Sync.Waitq.create ();
      sends = 0;
      recvs = 0;
      doorbells = 0;
      full_blocks = 0;
      empty_blocks = 0;
      drops = 0;
      bad_lengths = 0;
      send_ctxs = [];
      ring_group = None;
    }
  in
  let r = rings_of machine in
  r.rings <- t :: r.rings;
  write_word t off_magic magic;
  write_word t off_slots slots;
  write_word t off_slot_size slot_size;
  write_word t off_tail 0;
  write_word t off_head 0;
  (* in doorbell mode the consumer starts armed: the very first enqueue
     after a dry spell must ring *)
  write_word t off_armed (match mode with Doorbell -> 1 | Poll -> 0);
  t

let accept t ~into =
  (match t.consumer with
  | Some _ -> invalid_arg "Chan.accept: channel already has a consumer"
  | None -> ());
  let base =
    Vmem.map_shared t.vmem ~from_dom:t.producer ~vaddr:t.prod_base ~count:t.n_pages
      ~into ~prot:Pm_machine.Mmu.Read_write
  in
  t.consumer <- Some into;
  base

let name t = t.chan_name
let id t = t.chan_id
let slots t = t.n_slots
let slot_size t = t.sz_slot
let mode t = t.chan_mode
let set_mode t m = t.chan_mode <- m
let producer t = t.producer
let consumer t = t.consumer
let producer_base t = t.prod_base
let pending t = t.sends - t.recvs - t.bad_lengths

let stats t =
  {
    sends = t.sends;
    recvs = t.recvs;
    doorbells = t.doorbells;
    full_blocks = t.full_blocks;
    empty_blocks = t.empty_blocks;
    drops = t.drops;
    bad_lengths = t.bad_lengths;
  }

(* ------------------------------------------------------------------ *)
(* Linter introspection — plain reads, no cycle charges                *)
(* ------------------------------------------------------------------ *)

let iter_all ~machine f = List.iter f (List.rev (rings_of machine).rings)

let senders_seen t = List.rev t.send_ctxs
let group t = t.ring_group
let set_group t ~group ~owner_ctx = t.ring_group <- Some (group, owner_ctx)

(* ------------------------------------------------------------------ *)
(* Cross-CPU traffic                                                   *)
(* ------------------------------------------------------------------ *)

(* The consumer, when it is pinned to a different CPU from the producer
   — the condition under which ring traffic physically moves cache
   lines between cores. *)
let cross_consumer t =
  match t.consumer with
  | Some c when Cpu.cross t.machine ~a:t.producer.Domain.id ~b:c.Domain.id -> Some c
  | _ -> None

let is_cross_cpu t = cross_consumer t <> None

(* One side's cache-line bill for moving [len] payload bytes across
   CPUs; charged on the executing (missing) side's clock. *)
let charge_cachelines t len =
  if is_cross_cpu t then begin
    let clock = Machine.clock t.machine in
    Clock.advance clock (lines_of_msg len * (Machine.costs t.machine).Cost.cacheline);
    Clock.count clock "chan_cacheline"
  end

let domains_of_waitq q =
  Sync.Waitq.waiters q
  |> List.filter_map (fun th -> th.Scheduler.domain)
  |> List.sort_uniq compare

(* threads parked in [send] waiting for the consumer to make room *)
let blocked_senders t = domains_of_waitq t.not_full

(* threads parked in [recv] waiting for the producer to enqueue *)
let blocked_receivers t = domains_of_waitq t.not_empty

(* ------------------------------------------------------------------ *)
(* Doorbell                                                            *)
(* ------------------------------------------------------------------ *)

let arm t = write_word t off_armed 1

let ring_doorbell t =
  with_span t ~domain:t.producer.Domain.id ~meth:"doorbell" (fun () ->
      write_word t off_armed 0;
      t.doorbells <- t.doorbells + 1;
      Clock.count (Machine.clock t.machine) "chan_doorbell";
      (* a doorbell for a consumer pinned on another CPU is physically an
         IPI: the sender pays the bus signal, the target reconciles,
         wakes if halted, and the trap runs on the target's clock *)
      match cross_consumer t with
      | Some c ->
        Cpu.ipi t.machine ~cpu:(Cpu.cpu_of t.machine ~domain:c.Domain.id)
          doorbell_vec t.chan_id
      | None -> ignore (Machine.raise_trap t.machine doorbell_vec t.chan_id))

let on_doorbell t ~events ~sched f =
  let consumer =
    match t.consumer with
    | Some c -> c
    | None -> invalid_arg "Chan.on_doorbell: channel has no consumer"
  in
  (* the vector is shared: dispatch on the channel id before paying for a
     pop-up, so other channels' doorbells cost this one nothing *)
  Events.register events (Events.Trap doorbell_vec) ~domain:consumer (fun arg ->
      if arg = t.chan_id then
        ignore
          (Scheduler.popup sched ~name:("chan-" ^ t.chan_name)
             ~domain:consumer.Domain.id f))

(* ------------------------------------------------------------------ *)
(* Producer side                                                       *)
(* ------------------------------------------------------------------ *)

let try_send ?(account = true) t msg =
  let len = Bytes.length msg in
  if len > t.sz_slot then
    invalid_arg
      (Printf.sprintf "Chan.send: message of %d bytes exceeds slot size %d" len
         t.sz_slot);
  let head = read_word t off_head in
  if t.tail_local - head >= t.n_slots then false
  else begin
    let ctx = Mmu.current_context (Machine.mmu t.machine) in
    if not (List.mem ctx t.send_ctxs) then t.send_ctxs <- ctx :: t.send_ctxs;
    with_span t ~domain:t.producer.Domain.id ~meth:"enqueue" (fun () ->
        let off = slot_off t t.tail_local in
        write_word t off len;
        write_bytes t ~account (off + 4) msg;
        t.tail_local <- t.tail_local + 1;
        write_word t off_tail t.tail_local;
        t.sends <- t.sends + 1;
        Clock.count (Machine.clock t.machine) "chan_send";
        charge_cachelines t len;
        if t.chan_mode = Doorbell && read_word t off_armed = 1 then ring_doorbell t;
        ignore (Sync.Waitq.signal t.not_empty);
        true)
  end

let send_or_drop ?(account = true) t msg =
  let sent = try_send ~account t msg in
  if not sent then begin
    t.drops <- t.drops + 1;
    Clock.count (Machine.clock t.machine) "chan_drop"
  end;
  sent

let rec send ?(account = true) t msg =
  if not (try_send ~account t msg) then begin
    t.full_blocks <- t.full_blocks + 1;
    Clock.count (Machine.clock t.machine) "chan_full_block";
    Sync.Waitq.wait t.not_full;
    send ~account t msg
  end

(* ------------------------------------------------------------------ *)
(* Consumer side                                                       *)
(* ------------------------------------------------------------------ *)

(* The length word lives in shared memory the producer writes, so it is
   checked: a slot claiming more than [slot_size] bytes is consumed
   unread and counted, and the dequeue moves on to the slot behind it. *)
let rec try_recv ?(account = true) t =
  let tail = read_word t off_tail in
  if t.head_local >= tail then None
  else
    let domain =
      match t.consumer with Some c -> c.Domain.id | None -> t.producer.Domain.id
    in
    let msg =
      with_span t ~domain ~meth:"dequeue" (fun () ->
          let off = slot_off t t.head_local in
          let len = read_word t off in
          let msg =
            if len > t.sz_slot then None else Some (read_bytes t ~account (off + 4) len)
          in
          t.head_local <- t.head_local + 1;
          write_word t off_head t.head_local;
          (match msg with
          | Some _ ->
            t.recvs <- t.recvs + 1;
            Clock.count (Machine.clock t.machine) "chan_recv";
            charge_cachelines t len
          | None ->
            t.bad_lengths <- t.bad_lengths + 1;
            Clock.count (Machine.clock t.machine) "chan_bad_length";
            charge_cachelines t 0);
          ignore (Sync.Waitq.signal t.not_full);
          msg)
    in
    match msg with Some _ -> msg | None -> try_recv ~account t

let rec recv ?(account = true) t =
  match try_recv ~account t with
  | Some msg -> msg
  | None ->
    t.empty_blocks <- t.empty_blocks + 1;
    Clock.count (Machine.clock t.machine) "chan_empty_block";
    if t.chan_mode = Doorbell then arm t;
    Sync.Waitq.wait t.not_empty;
    recv ~account t

let recv_batch ?(account = true) ?(max = max_int) t () =
  let rec go n acc =
    if n >= max then List.rev acc
    else
      match try_recv ~account t with
      | Some msg -> go (n + 1) (msg :: acc)
      | None ->
        (* dry: re-arm so the next enqueue rings; when the drain stopped
           at [max] with messages left, the doorbell stays quiet and the
           caller is expected to keep polling — load skips doorbells *)
        if t.chan_mode = Doorbell then arm t;
        List.rev acc
  in
  go 0 []

(* Multi-producer single-consumer channel: per-producer SPSC sub-rings
   multiplexed into one consumer view through a small shared group
   header. Each producer owns a private ring (so the SPSC free-running
   tail discipline is preserved per ring — no CAS needed anywhere), and
   every enqueue additionally "reserves" through the group header: a
   store publishing the sub-ring's dirty hint and a load of the shared
   armed flag. That extra shared-word traffic is the price of
   multi-producer fan-in and is charged explicitly
   ({!Pm_machine.Cost.mpsc_reserve}).

   The armed flag is shared by all producers, which is what coalesces
   doorbells: the first enqueue after a dry spell clears it and rings;
   producers enqueueing before the consumer runs find it already clear
   and stay silent. One trap wakes the consumer for the whole burst,
   whoever produced it. *)

module Machine = Pm_machine.Machine
module Physmem = Pm_machine.Physmem
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost
module Cpu = Pm_machine.Cpu
module Obs = Pm_obs.Obs
module Domain = Pm_nucleus.Domain
module Vmem = Pm_nucleus.Vmem
module Events = Pm_nucleus.Events
module Scheduler = Pm_threads.Scheduler

let magic = 0xC4A70002

(* header word offsets, in bytes *)
let off_magic = 0
let off_producers = 4
let off_armed = 8
let off_dirty = 12

type stats = {
  sends : int;
  recvs : int;
  doorbells : int;
  drops : int;
  reserves : int;  (** group-header reserve transactions (one per send) *)
}

type t = {
  machine : Machine.t;
  vmem : Vmem.t;
  group_name : string;
  group_id : int;
  ring_slots : int;
  ring_slot_size : int;
  consumer : Domain.t;
  hdr_base : int; (* virtual base of the header page in the consumer *)
  hdr_phys : int;
  mutable gmode : Chan.mode;
  mutable rings : Chan.t array; (* one per producer, attach order *)
  mutable cursor : int; (* round-robin start for the next drain sweep *)
  mutable doorbells : int;
  mutable reserves : int;
}

type tx = { group : t; sub : Chan.t; idx : int }

(* ------------------------------------------------------------------ *)
(* Group header access: same explicit shared-word charging as the ring
   headers in {!Chan}.                                                 *)
(* ------------------------------------------------------------------ *)

let hread t off =
  Clock.advance (Machine.clock t.machine) (Machine.costs t.machine).Cost.mem_read;
  Physmem.read32 (Machine.phys t.machine) (t.hdr_phys + off)

let hwrite t off v =
  Clock.advance (Machine.clock t.machine) (Machine.costs t.machine).Cost.mem_write;
  Physmem.write32 (Machine.phys t.machine) (t.hdr_phys + off) v

let with_span t ~domain ~meth f =
  Clock.span (Machine.clock t.machine) ~costs:(Machine.costs t.machine) ~domain
    ~layer:"mpsc" ~obj:t.group_name ~iface:"mpsc" ~meth f

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create machine vmem ?name ?(slots = 64) ?(slot_size = 1024)
    ?(mode = Chan.Doorbell) ~consumer () =
  if slots <= 0 then invalid_arg "Mpsc.create: slots must be positive";
  if slot_size <= 0 || slot_size mod 4 <> 0 then
    invalid_arg "Mpsc.create: slot_size must be a positive multiple of 4";
  (* group ids share the doorbell vector's argument with channel ids,
     so they come from the machine's one counter *)
  let group_id = Chan.fresh_id machine in
  let name = match name with Some n -> n | None -> Printf.sprintf "mpsc%d" group_id in
  (* the group header lives in its own shared page, owned by the
     consumer and mapped into each producer at attach *)
  let hdr_base = Vmem.alloc_pages vmem consumer ~count:1 ~sharing:Vmem.Shared in
  let hdr_phys = Vmem.phys_of vmem consumer ~vaddr:hdr_base in
  let t =
    {
      machine;
      vmem;
      group_name = name;
      group_id;
      ring_slots = slots;
      ring_slot_size = slot_size;
      consumer;
      hdr_base;
      hdr_phys;
      gmode = mode;
      rings = [||];
      cursor = 0;
      doorbells = 0;
      reserves = 0;
    }
  in
  hwrite t off_magic magic;
  hwrite t off_producers 0;
  (* like an SPSC doorbell ring: the consumer starts armed, so the very
     first enqueue from any producer rings *)
  hwrite t off_armed (match mode with Chan.Doorbell -> 1 | Chan.Poll -> 0);
  hwrite t off_dirty 0;
  t

let attach t ~producer =
  let idx = Array.length t.rings in
  let sub =
    Chan.create t.machine t.vmem
      ~name:(Printf.sprintf "%s.p%d" t.group_name idx)
      ~slots:t.ring_slots ~slot_size:t.ring_slot_size ~mode:Chan.Poll ~producer ()
  in
  ignore (Chan.accept sub ~into:t.consumer);
  (* the sub-ring never rings for itself: the group header does; tag it
     so the linter polices per-sub-ring ownership *)
  Chan.set_group sub ~group:t.group_name ~owner_ctx:producer.Domain.id;
  (* the producer maps the group header too: the reserve words are the
     shared state every enqueue touches *)
  ignore
    (Vmem.map_shared t.vmem ~from_dom:t.consumer ~vaddr:t.hdr_base ~count:1
       ~into:producer ~prot:Pm_machine.Mmu.Read_write);
  t.rings <- Array.append t.rings [| sub |];
  hwrite t off_producers (Array.length t.rings);
  { group = t; sub; idx }

let name t = t.group_name
let id t = t.group_id
let set_mode t m = t.gmode <- m
let producers t = Array.length t.rings
let sub_ring tx = tx.sub

let pending t = Array.fold_left (fun acc r -> acc + Chan.pending r) 0 t.rings

let stats t =
  let sends, recvs, drops =
    Array.fold_left
      (fun (s, r, d) ring ->
        let st = Chan.stats ring in
        (s + st.Chan.sends, r + st.Chan.recvs, d + st.Chan.drops))
      (0, 0, 0) t.rings
  in
  { sends; recvs; doorbells = t.doorbells; drops; reserves = t.reserves }

(* ------------------------------------------------------------------ *)
(* Doorbell                                                            *)
(* ------------------------------------------------------------------ *)

let arm t = hwrite t off_armed 1

let ring_doorbell t tx =
  with_span t ~domain:(Chan.producer tx.sub).Domain.id ~meth:"doorbell" (fun () ->
      hwrite t off_armed 0;
      t.doorbells <- t.doorbells + 1;
      Clock.count (Machine.clock t.machine) "mpsc_doorbell";
      (* cross-CPU group doorbells are IPIs, same as SPSC ones *)
      let consumer = t.consumer.Domain.id in
      if Cpu.cross t.machine ~a:(Chan.producer tx.sub).Domain.id ~b:consumer then
        Cpu.ipi t.machine ~cpu:(Cpu.cpu_of t.machine ~domain:consumer) Chan.doorbell_vec
          t.group_id
      else ignore (Machine.raise_trap t.machine Chan.doorbell_vec t.group_id))

let on_doorbell t ~events ~sched f =
  Events.register events (Events.Trap Chan.doorbell_vec) ~domain:t.consumer (fun arg ->
      if arg = t.group_id then
        ignore
          (Scheduler.popup sched ~name:("mpsc-" ^ t.group_name)
             ~domain:t.consumer.Domain.id f))

(* ------------------------------------------------------------------ *)
(* Producer side                                                       *)
(* ------------------------------------------------------------------ *)

(* CAS contention on the group header. The reserve's publish is a
   compare-and-swap on the dirty word; on a true multiprocessor every
   *other* producer that is concurrently active — its sub-ring non-empty
   and its domain pinned to a different CPU than the reserver — is
   hammering the same line, and each costs the reserver one CAS retry.
   On a uniprocessor this is always zero: time-sliced producers never
   overlap a reserve, so the flat [mpsc_reserve] figure stands. *)
let contenders t tx =
  let me = (Chan.producer tx.sub).Domain.id in
  let n = ref 0 in
  Array.iteri
    (fun i r ->
      if
        i <> tx.idx && Chan.pending r > 0
        && Cpu.cross t.machine ~a:me ~b:(Chan.producer r).Domain.id
      then incr n)
    t.rings;
  !n

(* The reserve: publish the sub-ring's dirty hint and read the shared
   armed flag — the extra shared-word traffic a multi-producer enqueue
   pays. Priced {!Cost.mpsc_reserve_n}: the uncontended figure plus one
   CAS retry per concurrently-contending producer; ring the group
   doorbell if armed. *)
let reserve tx =
  let t = tx.group in
  t.reserves <- t.reserves + 1;
  Clock.count (Machine.clock t.machine) "mpsc_reserve";
  Physmem.write32 (Machine.phys t.machine) (t.hdr_phys + off_dirty) (tx.idx + 1);
  let contended = contenders t tx in
  if contended > 0 then
    Clock.count_n (Machine.clock t.machine) "mpsc_cas_retry" contended;
  Clock.advance (Machine.clock t.machine)
    (Cost.mpsc_reserve_n (Machine.costs t.machine) ~contended);
  let armed = Physmem.read32 (Machine.phys t.machine) (t.hdr_phys + off_armed) in
  if t.gmode = Chan.Doorbell && armed = 1 then ring_doorbell t tx

let try_send tx msg =
  if Chan.try_send tx.sub msg then begin
    reserve tx;
    true
  end
  else false

let send_or_drop ?account tx msg =
  let sent = Chan.send_or_drop ?account tx.sub msg in
  if sent then reserve tx;
  sent

(* ------------------------------------------------------------------ *)
(* Consumer side: one view over all sub-rings                          *)
(* ------------------------------------------------------------------ *)

let nrings t = Array.length t.rings

(* one round-robin pass starting at the cursor: at most one message per
   sub-ring, so a heavy producer cannot starve its neighbours *)
let try_recv ?account t =
  let n = nrings t in
  let rec scan k =
    if k >= n then None
    else
      let i = (t.cursor + k) mod n in
      match Chan.try_recv ?account t.rings.(i) with
      | Some msg ->
        t.cursor <- (i + 1) mod n;
        Some msg
      | None -> scan (k + 1)
  in
  if n = 0 then None else scan 0

let recv_batch ?account ?(max = max_int) t () =
  if nrings t = 0 then []
  else begin
    (* the dirty hint short-circuits a dry drain with one shared read
       instead of touching every sub-ring's tail *)
    let dirty = hread t off_dirty in
    if dirty = 0 then begin
      if t.gmode = Chan.Doorbell then arm t;
      []
    end
    else begin
      hwrite t off_dirty 0;
      let rec go n acc =
        if n >= max then (false, List.rev acc)
        else
          match try_recv ?account t with
          | Some msg -> go (n + 1) (msg :: acc)
          | None -> (true, List.rev acc)
      in
      let dry, msgs = go 0 [] in
      (* dry: re-arm so the next enqueue from any producer rings; when
         the drain stopped at [max] the caller keeps polling, so the
         hint stays set for the messages left behind *)
      if not dry then hwrite t off_dirty dirty
      else if t.gmode = Chan.Doorbell then arm t;
      msgs
    end
  end

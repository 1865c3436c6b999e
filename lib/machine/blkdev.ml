(* Simulated block device with a DMA descriptor ring.

   The device consumes descriptors from a ring the driver places in
   physical memory, so several operations stay in flight at once. The
   media is serialized: each fetched descriptor becomes ready
   [Cost.blk_op] cycles after the previous one finishes (or after fetch,
   when the media is idle). Completion writes the done bit back into the
   descriptor, advances HEAD, and raises a (coalesced) interrupt through
   the machine's ordinary IRQ dispatch — the nucleus event service turns
   that into a pop-up like any other device interrupt. A caller that
   cannot wait for that interrupt (a fault handler) uses the synchronous
   transfer instead: the CPU stalls for the same [Cost.blk_op], and the
   same media copy runs.

   Determinism: completion is clock-driven, not tick-counted. When the
   device is asked to make progress (a machine tick, or the driver
   polling STATUS) while operations are in flight but none are due yet,
   the virtual clock jumps to the earliest ready time — the CPU idling
   until the completion interrupt. An idle ring makes no progress and
   moves no clock, so an instance used only synchronously never jumps.

   Descriptor layout (16 bytes, 4 little-endian words):
     +0  cmd/status: bits 0-1 op (1 = read, 2 = write),
         bit 8 done, bit 9 error (device-written)
     +4  block number
     +8  physical address of the data buffer (block_size bytes)
     +12 reserved *)

module Journal = Pm_journal.Journal

let op_read = 1
let op_write = 2
let desc_done = 0x100
let desc_error = 0x200
let desc_bytes = 16

type inflight = {
  slot : int; (* free-running descriptor index *)
  op : int;
  block : int;
  buf : int; (* physical address *)
  ready_at : int; (* virtual cycle when the media finishes *)
  error : bool;
}

type t = {
  machine : Machine.t;
  irq_line : int;
  mutable io_base : int;
  blocks : int;
  block_size : int;
  store : (int, Bytes.t) Hashtbl.t;
  mutable ring_base : int;
  mutable ring_slots : int;
  mutable tail : int; (* driver-written producer index (free-running) *)
  mutable fetched : int; (* next descriptor index the device will fetch *)
  mutable head : int; (* completion index: everything below is done *)
  mutable ctrl : int;
  mutable status : int;
  mutable media_free_at : int; (* when the serialized media goes idle *)
  inflight : inflight Queue.t;
  mutable completed : int;
  mutable reads : int;
  mutable writes : int;
  mutable errors : int;
  mutable irqs : int;
}

let ctrl_enable = 1
let ctrl_irq_enable = 2
let status_complete = 1

let jot t ~kind ~info =
  let clock = Machine.clock t.machine in
  Journal.record
    (Pm_obs.Obs.journal (Clock.obs clock))
    ~kind ~domain:0 ~at:(Clock.now clock) ~info ~detail:""

let block_bytes t block =
  match Hashtbl.find_opt t.store block with
  | Some b -> b
  | None ->
    let b = Bytes.make t.block_size '\000' in
    Hashtbl.replace t.store block b;
    b

(* The one media path: copy one block between the media and physical
   memory, for a ring completion and a synchronous transfer alike. *)
let transfer t ~op ~block ~buf =
  let phys = Machine.phys t.machine in
  if op = op_read then begin
    t.reads <- t.reads + 1;
    Physmem.write_bytes phys buf (block_bytes t block) 0 t.block_size
  end
  else begin
    t.writes <- t.writes + 1;
    (* a fresh buffer: a copy that fails part way leaves the media as
       it was *)
    let data = Bytes.create t.block_size in
    Physmem.read_bytes phys buf data 0 t.block_size;
    Hashtbl.replace t.store block data
  end

let desc_addr t slot = t.ring_base + (slot mod t.ring_slots * desc_bytes)

(* Fetch every descriptor the driver has published. Media time is
   serialized: each op's ready_at starts where the previous one ended. *)
let fetch_descriptors t =
  let phys = Machine.phys t.machine in
  let clock = Machine.clock t.machine in
  let costs = Machine.costs t.machine in
  while t.ctrl land ctrl_enable <> 0 && t.fetched < t.tail do
    let addr = desc_addr t t.fetched in
    let cmd = Physmem.read32 phys addr land 0x3 in
    let block = Physmem.read32 phys (addr + 4) in
    let buf = Physmem.read32 phys (addr + 8) in
    let error =
      (cmd <> op_read && cmd <> op_write) || block < 0 || block >= t.blocks
    in
    let start = max (Clock.now clock) t.media_free_at in
    let ready_at =
      if error then Clock.now clock
      else start + Cost.blk_op costs ~bytes:t.block_size
    in
    if not error then t.media_free_at <- ready_at;
    Queue.push
      { slot = t.fetched; op = cmd; block; buf; ready_at; error }
      t.inflight;
    Clock.count clock "blk_issue";
    jot t ~kind:Journal.Blk_issue ~info:block;
    t.fetched <- t.fetched + 1
  done

(* Complete every in-flight op whose media time has elapsed. *)
let complete_due t =
  let phys = Machine.phys t.machine in
  let clock = Machine.clock t.machine in
  let fired = ref false in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.inflight with
    | Some op when op.ready_at <= Clock.now clock ->
      ignore (Queue.pop t.inflight);
      let flags =
        if op.error then begin
          t.errors <- t.errors + 1;
          desc_done lor desc_error
        end
        else begin
          transfer t ~op:op.op ~block:op.block ~buf:op.buf;
          desc_done
        end
      in
      let addr = desc_addr t op.slot in
      Physmem.write32 phys addr (Physmem.read32 phys addr lor flags);
      t.head <- op.slot + 1;
      t.completed <- t.completed + 1;
      t.status <- t.status lor status_complete;
      Clock.count clock (if op.error then "blk_error" else "blk_complete");
      jot t ~kind:Journal.Blk_complete ~info:op.block;
      fired := true
    | _ -> continue := false
  done;
  if !fired && t.ctrl land ctrl_irq_enable <> 0 then begin
    t.irqs <- t.irqs + 1;
    Machine.raise_irq t.machine t.irq_line
  end

let progress t = fetch_descriptors t; complete_due t

(* The ring has a descriptor published, fetched or in flight. *)
let busy t = t.fetched < t.tail || not (Queue.is_empty t.inflight)

(* Progress plus the idle-until-interrupt jump: with ops in flight but
   none due, the clock advances to the earliest ready time. *)
let progress_waiting t =
  progress t;
  (match Queue.peek_opt t.inflight with
  | Some op ->
    let clock = Machine.clock t.machine in
    if op.ready_at > Clock.now clock then begin
      Clock.advance clock (op.ready_at - Clock.now clock);
      Clock.count clock "blk_wait"
    end;
    complete_due t
  | None -> ())

let reg_read t reg =
  match reg with
  | 0 -> t.ring_base
  | 1 -> t.ring_slots
  | 2 -> t.tail
  | 3 -> progress t; t.head
  | 4 -> t.ctrl
  | 5 -> progress_waiting t; t.status
  | 6 -> t.blocks
  | 7 -> t.block_size
  | 8 -> t.completed
  | _ -> 0

let reg_write t reg v =
  match reg with
  | 0 -> t.ring_base <- v
  | 1 ->
    if v <= 0 then invalid_arg "Blkdev: ring needs at least one slot";
    t.ring_slots <- v;
    t.tail <- 0;
    t.fetched <- 0;
    t.head <- 0;
    (* reprogramming the ring geometry resets the device: in-flight ops
       belong to the old ring, and letting them complete would write
       done bits into the new ring's descriptor slots *)
    Queue.clear t.inflight;
    t.media_free_at <- 0
  | 2 ->
    if v - t.head > t.ring_slots then
      invalid_arg "Blkdev: tail overruns the ring";
    t.tail <- v;
    progress t
  | 4 -> t.ctrl <- v land 0x3; if t.ctrl land ctrl_enable <> 0 then progress t
  | 5 -> if v land status_complete <> 0 then
      t.status <- t.status land lnot status_complete
  | _ -> ()

let create machine ~name ~irq_line ~blocks ~block_size =
  if blocks <= 0 then invalid_arg "Blkdev.create: need at least one block";
  if block_size <= 0 then invalid_arg "Blkdev.create: bad block size";
  let t =
    {
      machine;
      irq_line;
      io_base = 0;
      blocks;
      block_size;
      store = Hashtbl.create 64;
      ring_base = 0;
      ring_slots = 1;
      tail = 0;
      fetched = 0;
      head = 0;
      ctrl = 0;
      status = 0;
      media_free_at = 0;
      inflight = Queue.create ();
      completed = 0;
      reads = 0;
      writes = 0;
      errors = 0;
      irqs = 0;
    }
  in
  let dev =
    Device.make ~name ~reg_count:9 ~reg_read:(reg_read t)
      ~reg_write:(reg_write t)
      ~tick:(fun () -> if busy t then progress_waiting t)
  in
  t.io_base <- Machine.attach_device machine dev;
  t

(* A synchronous transfer never overtakes a descriptor. *)
let sync t ~fn ~op ~block ~phys_addr =
  if block < 0 || block >= t.blocks then
    invalid_arg (Printf.sprintf "Blkdev.%s: block %d out of range" fn block);
  if busy t then
    invalid_arg (Printf.sprintf "Blkdev.%s: the ring has work outstanding" fn);
  let clock = Machine.clock t.machine in
  Clock.count clock "blk_issue";
  jot t ~kind:Journal.Blk_issue ~info:block;
  Clock.advance clock (Cost.blk_op (Machine.costs t.machine) ~bytes:t.block_size);
  transfer t ~op ~block ~buf:phys_addr;
  t.completed <- t.completed + 1;
  Clock.count clock "blk_complete";
  jot t ~kind:Journal.Blk_complete ~info:block

let read_sync t ~block ~phys_addr = sync t ~fn:"read_sync" ~op:op_read ~block ~phys_addr
let write_sync t ~block ~phys_addr = sync t ~fn:"write_sync" ~op:op_write ~block ~phys_addr

let io_base t = t.io_base
let blocks t = t.blocks
let block_size t = t.block_size
let completed t = t.completed
let in_flight t = Queue.length t.inflight
let reads t = t.reads
let writes t = t.writes
let errors t = t.errors
let irqs t = t.irqs

(* Test/workload-side peek at the media, outside the simulation. *)
let peek_block t block =
  if block < 0 || block >= t.blocks then
    invalid_arg "Blkdev.peek_block: out of range";
  Bytes.to_string (block_bytes t block)

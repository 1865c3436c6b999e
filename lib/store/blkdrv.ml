(* Block device driver component: owns the Blkdev DMA descriptor ring
   and exports the standard "block" interface at the bottom of every
   storage stack.

   The driver allocates the descriptor ring and one data buffer in its
   own domain, maps the register window through the I/O-space service,
   and turns completion interrupts into pop-up threads (the netdrv
   idiom). Each op posts one descriptor and waits for it, so one buffer
   is all an op ever has in flight: every descriptor names it.

   The device DMAs each block between the buffer's frame and the media,
   by the physical address the driver kept at [create], so the driver's
   CPU touches no byte of a block and translates no address for it
   ([Machine.dma]): a read hands the reader the block, and the reader
   charges what it reads of it; a write hands the writer's block to the
   device. A short write's zero padding is the only data the driver
   writes, and all it charges. The descriptor words are the CPU's own
   stores and loads on the ring page, translated and charged. *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Vmem = Pm_nucleus.Vmem
module Events = Pm_nucleus.Events
module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Blkdev = Pm_machine.Blkdev
module Instance = Pm_obj.Instance
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx

(* Blkdev register map *)
let reg_ring_base = 0
let reg_ring_slots = 1
let reg_tail = 2
let reg_head = 3
let reg_ctrl = 4
let reg_status = 5
let reg_blocks = 6
let reg_block_size = 7

let ctrl_enable = 1
let ctrl_irq_enable = 2
let status_complete = 1

let desc_bytes = 16
let desc_done = 0x100
let desc_error = 0x200

(* the boot convention: the block device interrupts on line 3 *)
let irq_line = 3

(* descriptor ring depth; the ring fits one page *)
let ring_slots = 8

type state = {
  api : Api.t;
  dom : Domain.t;
  grant : Vmem.io_grant;
  ring_vaddr : int;
  buf_phys : int; (* the data buffer's physical address *)
  blocks : int;
  block_size : int;
  mutable tail : int; (* free-running producer index, mirrors the device *)
  mutable reads : int;
  mutable writes : int;
  mutable irq_acks : int;
}

let fault msg = Error (Oerror.Fault msg)

let in_domain st f =
  let mmu = Machine.mmu st.api.Api.machine in
  let prev = Mmu.current_context mmu in
  if prev = st.dom.Domain.id then f ()
  else begin
    Mmu.switch_context mmu st.dom.Domain.id;
    Fun.protect ~finally:(fun () -> Mmu.switch_context mmu prev) f
  end

(* Post one descriptor at [slot], the next ring slot, naming the data
   buffer. *)
let post st ~op ~block slot =
  let machine = st.api.Api.machine in
  let d = st.ring_vaddr + (slot * desc_bytes) in
  Machine.write32 machine st.dom.Domain.id d op;
  Machine.write32 machine st.dom.Domain.id (d + 4) block;
  Machine.write32 machine st.dom.Domain.id (d + 8) st.buf_phys;
  st.tail <- st.tail + 1;
  Vmem.io_write st.api.Api.vmem st.grant ~reg:reg_tail st.tail

let max_spins = 10_000

(* Wait until the descriptor in [slot] completes. Each STATUS poll lets
   the device progress (including the idle-until-ready clock jump), so
   this terminates after a couple of iterations. *)
let wait_slot st slot =
  let machine = st.api.Api.machine in
  let d = st.ring_vaddr + (slot * desc_bytes) in
  let rec spin n =
    if n > max_spins then fault "blkdrv: device never completed"
    else begin
      let cmd = Machine.read32 machine st.dom.Domain.id d in
      if cmd land desc_done <> 0 then begin
        Vmem.io_write st.api.Api.vmem st.grant ~reg:reg_status status_complete;
        if cmd land desc_error <> 0 then fault "blkdrv: device reported error"
        else Ok ()
      end
      else begin
        ignore (Vmem.io_read st.api.Api.vmem st.grant ~reg:reg_status);
        spin (n + 1)
      end
    end
  in
  spin 0

let ( let* ) = Result.bind

let check_block st block =
  if block < 0 || block >= st.blocks then
    fault (Printf.sprintf "blkdrv: block %d out of range" block)
  else Ok ()

(* the block the device wrote into the buffer *)
let dma_in st =
  let data = Bytes.create st.block_size in
  Machine.dma st.api.Api.machine st.buf_phys data Mmu.Read;
  data

(* [data] into the buffer for the device to write out, padded to a block
   with zeros: the padding is the CPU's, and charged *)
let dma_out st ctx data =
  let pad = st.block_size - Bytes.length data in
  let block =
    if pad = 0 then data
    else begin
      let padded = Bytes.make st.block_size '\000' in
      Bytes.blit data 0 padded 0 (Bytes.length data);
      Call_ctx.access ctx pad;
      padded
    end
  in
  Machine.dma st.api.Api.machine st.buf_phys block Mmu.Write

let read_op st block =
  let* () = check_block st block in
  in_domain st (fun () ->
      let slot = st.tail mod ring_slots in
      post st ~op:Blkdev.op_read ~block slot;
      let* () = wait_slot st slot in
      let data = dma_in st in
      st.reads <- st.reads + 1;
      Ok data)

let write_op st ctx block data =
  let* () = check_block st block in
  if Bytes.length data > st.block_size then fault "blkdrv: write exceeds block size"
  else
    in_domain st (fun () ->
        let slot = st.tail mod ring_slots in
        dma_out st ctx data;
        post st ~op:Blkdev.op_write ~block slot;
        let* () = wait_slot st slot in
        st.writes <- st.writes + 1;
        Ok ())

(* The device writes through to the media at DMA completion, so flushing
   is waiting for the ring to drain. Every op has waited for its own
   descriptor, so the first poll finds the ring empty; the poll stays,
   because it is the barrier a layer above flushes through. *)
let flush_op st _ctx =
  in_domain st (fun () ->
      let rec spin n =
        if n > max_spins then fault "blkdrv: flush never drained"
        else begin
          let head = Vmem.io_read st.api.Api.vmem st.grant ~reg:reg_head in
          if head >= st.tail then Ok 0
          else begin
            ignore (Vmem.io_read st.api.Api.vmem st.grant ~reg:reg_status);
            spin (n + 1)
          end
        end
      in
      spin 0)

let create api dom =
  let vmem = api.Api.vmem in
  let machine = api.Api.machine in
  let grant = Vmem.alloc_io vmem dom ~device:"blkdev" ~sharing:Vmem.Exclusive in
  let page_size = Machine.page_size machine in
  let blocks = Vmem.io_read vmem grant ~reg:reg_blocks in
  let block_size = Vmem.io_read vmem grant ~reg:reg_block_size in
  if ring_slots * desc_bytes > page_size then
    invalid_arg "Blkdrv.create: ring exceeds one page";
  let ring_vaddr = Vmem.alloc_pages vmem dom ~count:1 ~sharing:Vmem.Exclusive in
  let buf_vaddr = Vmem.alloc_pages vmem dom ~count:1 ~sharing:Vmem.Exclusive in
  let st =
    {
      api;
      dom;
      grant;
      ring_vaddr;
      buf_phys = Vmem.phys_of vmem dom ~vaddr:buf_vaddr;
      blocks;
      block_size;
      tail = 0;
      reads = 0;
      writes = 0;
      irq_acks = 0;
    }
  in
  in_domain st (fun () ->
      let ring_phys = Vmem.phys_of vmem dom ~vaddr:ring_vaddr in
      Vmem.io_write vmem grant ~reg:reg_ring_base ring_phys;
      Vmem.io_write vmem grant ~reg:reg_ring_slots ring_slots;
      Vmem.io_write vmem grant ~reg:reg_ctrl (ctrl_enable lor ctrl_irq_enable));
  (* completion interrupts become pop-up threads in the driver's domain;
     synchronous waiters see completion in the descriptor itself, so the
     pop-up only acknowledges whatever the waiter has not *)
  ignore
    (Events.register_popup api.Api.events (Events.Irq irq_line) ~domain:dom
       ~sched:api.Api.sched ~priority:0 (fun _ ->
         in_domain st (fun () ->
             let status = Vmem.io_read vmem st.grant ~reg:reg_status in
             if status land status_complete <> 0 then begin
               Vmem.io_write vmem st.grant ~reg:reg_status status_complete;
               st.irq_acks <- st.irq_acks + 1
             end)));
  let iface =
    Blockif.methods
      ~read:(fun _ block ->
        Blockif.traced_span api "driver" (fun () -> read_op st block))
      ~write:(fun ctx block data ->
        Blockif.traced_span api "driver" (fun () -> write_op st ctx block data))
      ~flush:(fun ctx -> Blockif.traced_span api "driver" (fun () -> flush_op st ctx))
      ~size:(fun _ctx -> Ok st.blocks)
      ~blocksize:(fun () -> st.block_size)
      ~stats:(fun () -> [ st.reads; st.writes; st.irq_acks ])
  in
  let inst =
    Instance.create api.Api.registry ~class_name:"store.blkdrv"
      ~domain:dom.Domain.id [ iface ]
  in
  ignore
    (Storereg.register ~machine ~name:"blkdrv" ~kind:Storereg.Driver ~instance:inst
       ~domain:dom.Domain.id ());
  inst

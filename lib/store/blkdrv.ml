(* Block device driver component: owns the Blkdev DMA descriptor ring
   and exports the standard "block" interface at the bottom of every
   storage stack.

   The driver allocates the descriptor ring and per-slot data buffers in
   its own domain, maps the register window through the I/O-space
   service, and turns completion interrupts into pop-up threads (the
   netdrv idiom). Single ops post one descriptor and wait; [read_many] /
   [write_many] keep up to the whole ring in flight, which is where the
   device's multiple-outstanding-DMA model pays off (bench E19). *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Vmem = Pm_nucleus.Vmem
module Events = Pm_nucleus.Events
module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Blkdev = Pm_machine.Blkdev
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
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
  buf_vaddrs : int array; (* one data buffer per ring slot *)
  buf_phys : int array;
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

(* Post one descriptor at the next ring slot; the caller ensures no more
   than [ring_slots] are outstanding. Returns the slot index used. *)
let post st ~op ~block ~slot_buf =
  let machine = st.api.Api.machine in
  let slot = st.tail mod ring_slots in
  let d = st.ring_vaddr + (slot * desc_bytes) in
  Machine.write32 machine st.dom.Domain.id d op;
  Machine.write32 machine st.dom.Domain.id (d + 4) block;
  Machine.write32 machine st.dom.Domain.id (d + 8) st.buf_phys.(slot_buf);
  st.tail <- st.tail + 1;
  Vmem.io_write st.api.Api.vmem st.grant ~reg:reg_tail st.tail;
  slot

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

let read_op st ctx block =
  let* () = check_block st block in
  in_domain st (fun () ->
      let slot_buf = st.tail mod ring_slots in
      let slot = post st ~op:Storewire.op_read ~block ~slot_buf in
      let* () = wait_slot st slot in
      let data =
        Machine.read_bytes st.api.Api.machine st.dom.Domain.id
          st.buf_vaddrs.(slot_buf) st.block_size
      in
      Call_ctx.note_access ctx st.block_size;
      st.reads <- st.reads + 1;
      Ok data)

let write_op st ctx block data =
  let* () = check_block st block in
  if Bytes.length data > st.block_size then fault "blkdrv: write exceeds block size"
  else
    in_domain st (fun () ->
        let slot_buf = st.tail mod ring_slots in
        let padded = Bytes.make st.block_size '\000' in
        Bytes.blit data 0 padded 0 (Bytes.length data);
        Machine.write_bytes st.api.Api.machine st.dom.Domain.id
          st.buf_vaddrs.(slot_buf) padded;
        Call_ctx.note_access ctx st.block_size;
        let slot = post st ~op:Storewire.op_write ~block ~slot_buf in
        let* () = wait_slot st slot in
        st.writes <- st.writes + 1;
        Ok ())

(* Batched ops: post a whole window of descriptors before waiting, so up
   to [ring_slots] DMAs are in flight; completion is in-order, so
   waiting on the window's last slot completes the window. *)
let read_many st ctx bs =
  in_domain st (fun () ->
      let results = ref [] in
      let rec window = function
        | [] -> Ok ()
        | chunk_blocks ->
          let chunk, rest =
            let rec split n acc = function
              | x :: tl when n > 0 -> split (n - 1) (x :: acc) tl
              | tl -> (List.rev acc, tl)
            in
            split ring_slots [] chunk_blocks
          in
          let* posted =
            List.fold_left
              (fun acc block ->
                let* acc = acc in
                let* () = check_block st block in
                let slot_buf = st.tail mod ring_slots in
                let slot = post st ~op:Storewire.op_read ~block ~slot_buf in
                Ok ((slot, slot_buf) :: acc))
              (Ok []) chunk
          in
          let posted = List.rev posted in
          (match List.rev posted with
          | [] -> Ok ()
          | (last_slot, _) :: _ ->
            let* () = wait_slot st last_slot in
            List.iter
              (fun (_, slot_buf) ->
                let data =
                  Machine.read_bytes st.api.Api.machine st.dom.Domain.id
                    st.buf_vaddrs.(slot_buf) st.block_size
                in
                Call_ctx.note_access ctx st.block_size;
                st.reads <- st.reads + 1;
                results := data :: !results)
              posted;
            window rest)
      in
      let* () = window bs in
      Ok (List.rev !results))

let write_many st ctx pairs =
  in_domain st (fun () ->
      let rec window = function
        | [] -> Ok 0
        | chunk_pairs ->
          let chunk, rest =
            let rec split n acc = function
              | x :: tl when n > 0 -> split (n - 1) (x :: acc) tl
              | tl -> (List.rev acc, tl)
            in
            split ring_slots [] chunk_pairs
          in
          let* posted =
            List.fold_left
              (fun acc (block, data) ->
                let* acc = acc in
                let* () = check_block st block in
                if Bytes.length data > st.block_size then
                  fault "blkdrv: write exceeds block size"
                else begin
                  let slot_buf = st.tail mod ring_slots in
                  let padded = Bytes.make st.block_size '\000' in
                  Bytes.blit data 0 padded 0 (Bytes.length data);
                  Machine.write_bytes st.api.Api.machine st.dom.Domain.id
                    st.buf_vaddrs.(slot_buf) padded;
                  Call_ctx.note_access ctx st.block_size;
                  let slot = post st ~op:Storewire.op_write ~block ~slot_buf in
                  Ok (slot :: acc)
                end)
              (Ok []) chunk
          in
          (match posted with
          | [] -> Ok 0
          | last_slot :: _ ->
            let* () = wait_slot st last_slot in
            st.writes <- st.writes + List.length posted;
            let* n = window rest in
            Ok (List.length posted + n))
      in
      window pairs)

(* The device writes through to the media at DMA completion, so flushing
   is waiting for the ring to drain. *)
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
  (* per-slot data buffers, packed into as few pages as needed; a buffer
     never straddles pages while block_size divides page_size *)
  let per_page = max 1 (page_size / block_size) in
  let pages_needed = (ring_slots + per_page - 1) / per_page in
  let page_vaddrs =
    Array.init pages_needed (fun _ ->
        Vmem.alloc_pages vmem dom ~count:1 ~sharing:Vmem.Exclusive)
  in
  let buf_vaddrs =
    Array.init ring_slots (fun i ->
        page_vaddrs.(i / per_page) + (i mod per_page * block_size))
  in
  let st =
    {
      api;
      dom;
      grant;
      ring_vaddr;
      buf_vaddrs;
      buf_phys = Array.make ring_slots 0;
      blocks;
      block_size;
      tail = 0;
      reads = 0;
      writes = 0;
      irq_acks = 0;
    }
  in
  in_domain st (fun () ->
      Array.iteri
        (fun i vaddr ->
          let page_vaddr = vaddr - (vaddr mod page_size) in
          let page_phys = Vmem.phys_of vmem dom ~vaddr:page_vaddr in
          st.buf_phys.(i) <- page_phys + (vaddr mod page_size))
        buf_vaddrs;
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
      ~read:(fun ctx block ->
        Blockif.traced_span api "driver" (fun () -> read_op st ctx block))
      ~write:(fun ctx block data ->
        Blockif.traced_span api "driver" (fun () -> write_op st ctx block data))
      ~flush:(fun ctx -> Blockif.traced_span api "driver" (fun () -> flush_op st ctx))
      ~size:(fun _ctx -> Ok st.blocks)
      ~blocksize:(fun () -> st.block_size)
      ~stats:(fun () -> [ st.reads; st.writes; st.irq_acks ])
  in
  (* Invoke has checked every element against the signature *)
  let ring_iface =
    Iface.make ~name:"blkring"
      [
        Iface.fn1 ~name:"read_many" (Iface.List Vtype.Tint) ~ret:(Vtype.Tlist Vtype.Tblob)
          (fun ctx vs ->
            let bs = List.filter_map (function Value.Int b -> Some b | _ -> None) vs in
            let* datas =
              Blockif.traced_span api "driver" (fun () -> read_many st ctx bs)
            in
            Ok (Value.List (List.map (fun d -> Value.Blob d) datas)));
        Iface.fn1 ~name:"write_many"
          (Iface.List (Vtype.Tpair (Vtype.Tint, Vtype.Tblob)))
          ~ret:Vtype.Tint
          (fun ctx vs ->
            let pairs =
              List.filter_map
                (function
                  | Value.Pair (Value.Int b, Value.Blob d) -> Some (b, d) | _ -> None)
                vs
            in
            Blockif.traced_span api "driver" (fun () ->
                Result.map (fun n -> Value.Int n) (write_many st ctx pairs)));
      ]
  in
  let inst =
    Instance.create api.Api.registry ~class_name:"store.blkdrv"
      ~domain:dom.Domain.id [ iface; ring_iface ]
  in
  ignore
    (Storereg.register ~machine ~name:"blkdrv" ~kind:Storereg.Driver ~instance:inst
       ~domain:dom.Domain.id ());
  inst

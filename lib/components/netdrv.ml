module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Vmem = Pm_nucleus.Vmem
module Events = Pm_nucleus.Events
module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Nic = Pm_machine.Nic
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx
module Invoke = Pm_obj.Invoke
module Path = Pm_names.Path

type config = {
  rx_buffers : int;
  tx_slots : int;
  loopback : bool;
  io_sharing : Vmem.sharing;
}

let default_config =
  { rx_buffers = 8; tx_slots = 8; loopback = false; io_sharing = Vmem.Exclusive }

(* NIC register map (see Pm_machine.Nic) *)
let reg_ctrl = 0
let reg_status = 1
let reg_rx_free = 2
let reg_rx_addr = 3
let reg_rx_len = 4
let reg_tx_addr = 5
let reg_tx_len = 6
let reg_tx_go = 7
let reg_rx_dropped = 8
let reg_tx_free = 9

let ctrl_rx = 1
let ctrl_tx = 2
let ctrl_irq = 4
let ctrl_loopback = 8

let status_rx = 1
let status_tx_done = 2

type state = {
  api : Api.t;
  dom : Domain.t;
  grant : Vmem.io_grant;
  buf_vaddr_of_phys : (int, int) Hashtbl.t;
  (* tx staging pages, used round-robin; a page is reused only after
     [Array.length tx_vaddrs] later stagings, by which time its DMA (FIFO
     on the device) has completed *)
  tx_vaddrs : int array;
  mutable tx_next : int;
  mutable sink : Instance.t option;
  mutable rx_count : int;
  mutable tx_count : int;
  (* Single-writer discipline on the device's tx descriptor ring: [send]
     posts directly only when the ring is idle; while DMAs are in flight,
     the tx_done interrupt alone stages frames (from the backlog, in
     order), so there is exactly one writer at any time and no frame
     reordering. *)
  mutable tx_inflight : int;
  tx_backlog : Bytes.t Queue.t;
}

(* Run [f] with the driver's MMU context current (I/O grants are checked
   against the running context). *)
let in_domain st f =
  let mmu = Machine.mmu st.api.Api.machine in
  let prev = Mmu.current_context mmu in
  if prev = st.dom.Domain.id then f ()
  else begin
    Mmu.switch_context mmu st.dom.Domain.id;
    Fun.protect ~finally:(fun () -> Mmu.switch_context mmu prev) f
  end

let stage_tx st ctx data =
  let vmem = st.api.Api.vmem in
  let len = Bytes.length data in
  let vaddr = st.tx_vaddrs.(st.tx_next) in
  st.tx_next <- (st.tx_next + 1) mod Array.length st.tx_vaddrs;
  Machine.write_bytes st.api.Api.machine st.dom.Domain.id vaddr data;
  Call_ctx.note_access ctx len;
  let phys = Vmem.phys_of vmem st.dom ~vaddr in
  Vmem.io_write vmem st.grant ~reg:reg_tx_addr phys;
  Vmem.io_write vmem st.grant ~reg:reg_tx_len len;
  Vmem.io_write vmem st.grant ~reg:reg_tx_go 1;
  st.tx_inflight <- st.tx_inflight + 1;
  st.tx_count <- st.tx_count + 1

(* Interrupt body: drain completed receive DMA, push frames to the sink,
   recycle buffers, acknowledge transmit completions. *)
let service_interrupt st () =
  let vmem = st.api.Api.vmem in
  let ctx = Api.ctx st.api st.dom in
  let rec drain () =
    let status = Vmem.io_read vmem st.grant ~reg:reg_status in
    if status land status_tx_done <> 0 then begin
      Vmem.io_write vmem st.grant ~reg:reg_status status_tx_done;
      st.tx_inflight <- max 0 (st.tx_inflight - 1);
      (* refill every free descriptor slot from the backlog, keeping
         several DMAs in flight (empty backlog touches no registers) *)
      let rec refill () =
        if
          (not (Queue.is_empty st.tx_backlog))
          && st.tx_inflight < Array.length st.tx_vaddrs
          && Vmem.io_read vmem st.grant ~reg:reg_tx_free > 0
        then begin
          stage_tx st ctx (Queue.pop st.tx_backlog);
          refill ()
        end
      in
      refill ()
    end;
    if status land status_rx <> 0 then begin
      let phys = Vmem.io_read vmem st.grant ~reg:reg_rx_addr in
      let len = Vmem.io_read vmem st.grant ~reg:reg_rx_len in
      match Hashtbl.find_opt st.buf_vaddr_of_phys phys with
      | None ->
        (* not one of ours: ack and drop *)
        Vmem.io_write vmem st.grant ~reg:reg_status status_rx;
        drain ()
      | Some vaddr ->
        let data =
          Machine.read_bytes st.api.Api.machine st.dom.Domain.id vaddr len
        in
        Call_ctx.note_access ctx len;
        (* ack (pops the descriptor) and recycle the buffer *)
        Vmem.io_write vmem st.grant ~reg:reg_status status_rx;
        Vmem.io_write vmem st.grant ~reg:reg_rx_free phys;
        st.rx_count <- st.rx_count + 1;
        (match st.sink with
        | None -> ()
        | Some sink ->
          (match
             Invoke.call ctx sink ~iface:"stack" ~meth:"rx"
               [ Value.Blob data ]
           with
          | Ok _ -> ()
          | Error e ->
            Logs.warn (fun m -> m "netdrv: sink rx failed: %s" (Oerror.to_string e))));
        drain ()
    end
  in
  drain ()

let send st ctx data =
  let len = Bytes.length data in
  if len > Nic.mtu then Error (Oerror.Fault "netdrv: frame exceeds MTU")
  else begin
    in_domain st (fun () ->
        if st.tx_inflight > 0 then begin
          (* ring active: copy into the backlog; the tx_done interrupt
             stages it onto the wire, in order *)
          Call_ctx.note_access ctx len;
          Queue.push (Bytes.copy data) st.tx_backlog
        end
        else stage_tx st ctx data;
        Ok Value.Unit)
  end

let create api dom ?(config = default_config) () =
  if config.rx_buffers <= 0 then invalid_arg "Netdrv.create: need rx buffers";
  if config.rx_buffers > Nic.rx_slots then invalid_arg "Netdrv.create: bad rx_buffers";
  if config.tx_slots <= 0 || config.tx_slots > Nic.tx_slots then
    invalid_arg "Netdrv.create: bad tx_slots";
  let vmem = api.Api.vmem in
  let grant = Vmem.alloc_io vmem dom ~device:"nic" ~sharing:config.io_sharing in
  let buf_vaddr_of_phys = Hashtbl.create 16 in
  (* one page per rx buffer plus one staging page per tx slot *)
  let tx_vaddrs =
    Array.init config.tx_slots (fun _ ->
        Vmem.alloc_pages vmem dom ~count:1 ~sharing:Vmem.Exclusive)
  in
  let st =
    { api; dom; grant; buf_vaddr_of_phys; tx_vaddrs; tx_next = 0; sink = None;
      rx_count = 0; tx_count = 0; tx_inflight = 0; tx_backlog = Queue.create () }
  in
  in_domain st (fun () ->
      for _ = 1 to config.rx_buffers do
        let vaddr = Vmem.alloc_pages vmem dom ~count:1 ~sharing:Vmem.Exclusive in
        let phys = Vmem.phys_of vmem dom ~vaddr in
        Hashtbl.replace buf_vaddr_of_phys phys vaddr;
        Vmem.io_write vmem grant ~reg:reg_rx_free phys
      done;
      let ctrl =
        ctrl_rx lor ctrl_tx lor ctrl_irq
        lor if config.loopback then ctrl_loopback else 0
      in
      Vmem.io_write vmem grant ~reg:reg_ctrl ctrl);
  (* redirect the NIC interrupt (line 1 by boot convention) to a pop-up
     thread in the driver's domain *)
  ignore
    (Events.register_popup api.Api.events (Events.Irq 1) ~domain:dom
       ~sched:api.Api.sched ~priority:0 (fun _ -> service_interrupt st ()));
  let iface =
    Iface.make ~name:"netdev"
      [
        Iface.fn1 ~name:"send" Iface.Blob ~ret:Vtype.Tunit (fun ctx data ->
            send st ctx data);
        Iface.fn1 ~name:"attach" Iface.Str ~ret:Vtype.Tunit (fun _ path ->
            match Api.bind api dom (Path.of_string path) with
            | Ok sink ->
              st.sink <- Some sink;
              Ok Value.Unit
            | Error e ->
              Error (Oerror.Fault (Pm_nucleus.Directory.bind_error_to_string e)));
        Iface.fn0 ~name:"detach" ~ret:Vtype.Tunit (fun _ ->
            st.sink <- None;
            Ok Value.Unit);
        Iface.fn0 ~name:"stats" ~ret:(Vtype.Tpair (Vtype.Tint, Vtype.Tint)) (fun _ ->
            Ok (Value.Pair (Value.Int st.rx_count, Value.Int st.tx_count)));
        Iface.fn0 ~name:"mtu" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int Nic.mtu));
        Iface.fn0 ~name:"dropped" ~ret:Vtype.Tint (fun _ ->
            in_domain st (fun () ->
                Ok (Value.Int (Vmem.io_read vmem st.grant ~reg:reg_rx_dropped))));
      ]
  in
  Instance.create api.Api.registry ~class_name:"toolbox.netdrv" ~domain:dom.Domain.id
    [ iface ]

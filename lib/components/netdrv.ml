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
module Invoke = Pm_obj.Invoke
module Path = Pm_names.Path

type config = { rx_buffers : int; loopback : bool }

let default_config = { rx_buffers = 8; loopback = false }

(* tx staging pages, and so the most DMAs kept in flight *)
let tx_pages = 8

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
let reg_rx_bad_fcs = 10

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
  (* the receive buffers' frames, as posted: the only addresses the
     driver takes a frame from *)
  rx_frames : int array;
  (* tx staging pages' frames, used round-robin; a page is reused only
     after [Array.length tx_frames] later stagings, by which time its DMA
     (FIFO on the device) has completed *)
  tx_frames : int array;
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
  tx_backlog : Bytes.t Queue.t; (* the senders' frames, as they were sent *)
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

(* The device reads the sender's frame where it lies: the DMA into the
   staging page's frame moves its bytes, and the CPU touches none of
   them. *)
let stage_tx st data =
  let vmem = st.api.Api.vmem in
  let len = Bytes.length data in
  let phys = st.tx_frames.(st.tx_next) in
  st.tx_next <- (st.tx_next + 1) mod Array.length st.tx_frames;
  Machine.dma st.api.Api.machine phys data Mmu.Write;
  Vmem.io_write vmem st.grant ~reg:reg_tx_addr phys;
  Vmem.io_write vmem st.grant ~reg:reg_tx_len len;
  Vmem.io_write vmem st.grant ~reg:reg_tx_go 1;
  st.tx_inflight <- st.tx_inflight + 1;
  st.tx_count <- st.tx_count + 1

(* Interrupt body: drain completed receive DMA, lend each frame to the
   sink, recycle its buffer once the sink returns, acknowledge transmit
   completions. *)
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
          && st.tx_inflight < Array.length st.tx_frames
          && Vmem.io_read vmem st.grant ~reg:reg_tx_free > 0
        then begin
          stage_tx st (Queue.pop st.tx_backlog);
          refill ()
        end
      in
      refill ()
    end;
    if status land status_rx <> 0 then begin
      let phys = Vmem.io_read vmem st.grant ~reg:reg_rx_addr in
      let len = Vmem.io_read vmem st.grant ~reg:reg_rx_len in
      if not (Array.mem phys st.rx_frames) then begin
        (* not one of ours: ack and drop *)
        Vmem.io_write vmem st.grant ~reg:reg_status status_rx;
        drain ()
      end
      else begin
        (* the frame the device wrote, lent to the sink: the sink charges
           the bytes it reads *)
        let data = Bytes.create len in
        Machine.dma st.api.Api.machine phys data Mmu.Read;
        (* ack: pops the descriptor and exposes the next *)
        Vmem.io_write vmem st.grant ~reg:reg_status status_rx;
        st.rx_count <- st.rx_count + 1;
        (* the sink has returned the buffer, or raised: either way it is
           the device's again *)
        (match st.sink with
        | None -> ()
        | Some sink ->
          (match
             Invoke.call ctx sink ~iface:"stack" ~meth:"rx"
               [ Value.Blob data ]
           with
          | Ok _ -> ()
          | Error e ->
            Logs.warn (fun m -> m "netdrv: sink rx failed: %s" (Oerror.to_string e))
          | exception exn ->
            Vmem.io_write vmem st.grant ~reg:reg_rx_free phys;
            raise exn));
        Vmem.io_write vmem st.grant ~reg:reg_rx_free phys;
        drain ()
      end
    end
  in
  drain ()

let send st data =
  if Bytes.length data > Nic.mtu then Error (Oerror.Fault "netdrv: frame exceeds MTU")
  else begin
    in_domain st (fun () ->
        (* ring active: the backlog keeps the frame itself; the tx_done
           interrupt stages it onto the wire, in order *)
        if st.tx_inflight > 0 then Queue.push data st.tx_backlog else stage_tx st data;
        Ok Value.Unit)
  end

let create api dom ?(config = default_config) () =
  if config.rx_buffers <= 0 then invalid_arg "Netdrv.create: need rx buffers";
  if config.rx_buffers > Nic.rx_slots then invalid_arg "Netdrv.create: bad rx_buffers";
  let vmem = api.Api.vmem in
  let grant = Vmem.alloc_io vmem dom ~device:"nic" ~sharing:Vmem.Exclusive in
  (* one page per rx buffer plus [tx_pages] staging pages, each known to
     the driver by its frame from here on *)
  let page () =
    let vaddr = Vmem.alloc_pages vmem dom ~count:1 ~sharing:Vmem.Exclusive in
    Vmem.phys_of vmem dom ~vaddr
  in
  let tx_frames = Array.init tx_pages (fun _ -> page ()) in
  let st =
    { api; dom; grant; rx_frames = Array.make config.rx_buffers 0; tx_frames;
      tx_next = 0; sink = None; rx_count = 0; tx_count = 0; tx_inflight = 0;
      tx_backlog = Queue.create () }
  in
  in_domain st (fun () ->
      for i = 0 to config.rx_buffers - 1 do
        let phys = page () in
        st.rx_frames.(i) <- phys;
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
        Iface.fn1 ~name:"send" Iface.Blob ~ret:Vtype.Tunit (fun _ data -> send st data);
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
                let io_read reg = Vmem.io_read vmem st.grant ~reg in
                Ok (Value.Int (io_read reg_rx_dropped + io_read reg_rx_bad_fcs))));
      ]
  in
  Instance.create api.Api.registry ~class_name:"toolbox.netdrv" ~domain:dom.Domain.id
    [ iface ]

let mtu = 1514

(* Receive descriptor ring capacity: buffers the driver has posted and
   the device has not filled, plus filled frames the driver has not
   popped. A driver posts 8 ([Netdrv.default_config]). *)
let rx_slots = 64

(* Transmit descriptor ring capacity: how many staged DMAs the device
   holds at once. The driver reads TX_FREE before staging. *)
let tx_slots = 16

(* The wire keeps only the newest [capture] transmitted frames: a boot
   that never drains them must not grow with every frame it sends. *)
let capture = 4096

(* The descriptor rings are fixed arrays indexed by running counts
   (slot = count mod capacity), so a descriptor costs no allocation. On
   the receive ring, [rx_head, rx_fill) are filled frames awaiting the
   driver's pop (the completion queue) and [rx_fill, rx_tail) are posted
   buffers awaiting a frame (the free list); the device fills them in
   posted order, as a real NIC's one receive ring does. *)
type t = {
  machine : Machine.t;
  irq_line : int;
  mutable io_base : int;
  mutable ctrl : int;
  mutable status : int;
  rx_addr : int array; (* physical addresses supplied by the driver *)
  rx_len : int array; (* a filled slot's frame length *)
  mutable rx_head : int;
  mutable rx_fill : int;
  mutable rx_tail : int;
  wire_in : string Queue.t;
  mutable staged_tx_addr : int;
  mutable staged_tx_len : int;
  tx_addr : int array; (* the tx descriptor ring: [tx_head, tx_tail) *)
  tx_len : int array;
  mutable tx_head : int;
  mutable tx_tail : int;
  transmitted : string Queue.t; (* the newest <= [capture], oldest first *)
  mutable rx_dropped : int;
}

let ctrl_rx_enable = 1
let ctrl_tx_enable = 2
let ctrl_irq_enable = 4
let ctrl_loopback = 8

let status_rx = 1
let status_tx_done = 2

let reg_read t reg =
  match reg with
  | 0 -> t.ctrl
  | 1 -> t.status
  | 2 -> t.rx_tail - t.rx_fill
  | 3 -> if t.rx_head < t.rx_fill then t.rx_addr.(t.rx_head mod rx_slots) else 0
  | 4 -> if t.rx_head < t.rx_fill then t.rx_len.(t.rx_head mod rx_slots) else 0
  | 5 -> t.staged_tx_addr
  | 6 -> t.staged_tx_len
  | 7 -> 0
  | 8 -> t.rx_dropped
  | 9 -> tx_slots - (t.tx_tail - t.tx_head)
  | _ -> 0

let reg_write t reg v =
  match reg with
  | 0 -> t.ctrl <- v land 0xf
  | 1 ->
    (* write-1-to-clear; clearing RX pops the descriptor *)
    if v land status_rx <> 0 && t.rx_head < t.rx_fill then t.rx_head <- t.rx_head + 1;
    if t.rx_head = t.rx_fill then t.status <- t.status land lnot status_rx;
    if v land status_tx_done <> 0 then t.status <- t.status land lnot status_tx_done
  | 2 ->
    (* a buffer posted against a full ring is dropped *)
    if t.rx_tail - t.rx_head < rx_slots then begin
      t.rx_addr.(t.rx_tail mod rx_slots) <- v;
      t.rx_tail <- t.rx_tail + 1
    end
  | 5 -> t.staged_tx_addr <- v
  | 6 -> t.staged_tx_len <- v
  | 7 ->
    (* a kick against a full ring drops the descriptor *)
    if v = 1 && t.ctrl land ctrl_tx_enable <> 0 && t.tx_tail - t.tx_head < tx_slots
    then begin
      let slot = t.tx_tail mod tx_slots in
      t.tx_addr.(slot) <- t.staged_tx_addr;
      t.tx_len.(slot) <- t.staged_tx_len;
      t.tx_tail <- t.tx_tail + 1
    end
  | _ -> ()

let interrupt t =
  if t.ctrl land ctrl_irq_enable <> 0 then Machine.raise_irq t.machine t.irq_line

(* One machine tick: complete at most one transmit and one receive DMA,
   then raise one interrupt if either completed. The driver services
   every cause in one entry, so a loopback frame's tx-done and rx share
   it. A looped-back frame goes to the receive side only: it never
   reaches the wire, so it is not captured. *)
let tick t =
  let phys = Machine.phys t.machine in
  let fired = ref false in
  if t.tx_head < t.tx_tail then begin
    let slot = t.tx_head mod tx_slots in
    t.tx_head <- t.tx_head + 1;
    let len = t.tx_len.(slot) in
    let frame = Bytes.create len in
    Physmem.read_bytes phys t.tx_addr.(slot) frame 0 len;
    let frame = Bytes.unsafe_to_string frame in
    if t.ctrl land ctrl_loopback <> 0 then Queue.push frame t.wire_in
    else begin
      Queue.push frame t.transmitted;
      if Queue.length t.transmitted > capture then ignore (Queue.pop t.transmitted)
    end;
    t.status <- t.status lor status_tx_done;
    fired := true
  end;
  if t.ctrl land ctrl_rx_enable <> 0 && not (Queue.is_empty t.wire_in) then begin
    let packet = Queue.pop t.wire_in in
    if t.rx_fill = t.rx_tail then t.rx_dropped <- t.rx_dropped + 1
    else begin
      let slot = t.rx_fill mod rx_slots in
      let len = String.length packet in
      t.rx_fill <- t.rx_fill + 1;
      Physmem.write_bytes phys t.rx_addr.(slot) (Bytes.unsafe_of_string packet) 0 len;
      t.rx_len.(slot) <- len;
      t.status <- t.status lor status_rx;
      fired := true
    end
  end;
  if !fired then interrupt t

let create machine ~irq_line =
  let t =
    {
      machine;
      irq_line;
      io_base = 0;
      ctrl = 0;
      status = 0;
      rx_addr = Array.make rx_slots 0;
      rx_len = Array.make rx_slots 0;
      rx_head = 0;
      rx_fill = 0;
      rx_tail = 0;
      wire_in = Queue.create ();
      staged_tx_addr = 0;
      staged_tx_len = 0;
      tx_addr = Array.make tx_slots 0;
      tx_len = Array.make tx_slots 0;
      tx_head = 0;
      tx_tail = 0;
      transmitted = Queue.create ();
      rx_dropped = 0;
    }
  in
  let dev =
    Device.make ~name:"nic" ~reg_count:10 ~reg_read:(reg_read t)
      ~reg_write:(reg_write t) ~tick:(fun () -> tick t)
  in
  t.io_base <- Machine.attach_device machine dev;
  t

let io_base t = t.io_base

let inject t packet =
  if String.length packet > mtu then invalid_arg "Nic.inject: packet exceeds MTU";
  Queue.push packet t.wire_in

let take_transmitted t =
  let frames = List.of_seq (Queue.to_seq t.transmitted) in
  Queue.clear t.transmitted;
  frames

let pending_wire t = Queue.length t.wire_in

let mtu = 1514

(* Transmit descriptor ring capacity: how many staged DMAs the device
   holds at once. The driver reads TX_FREE before staging. *)
let tx_slots = 16

type pending_tx = { addr : int; len : int }

type t = {
  machine : Machine.t;
  irq_line : int;
  mutable io_base : int;
  mutable ctrl : int;
  mutable status : int;
  free_bufs : int Queue.t; (* physical addresses supplied by the driver *)
  filled : (int * int) Queue.t; (* (phys addr, len) DMA-completed *)
  wire_in : string Queue.t;
  mutable staged_tx_addr : int;
  mutable staged_tx_len : int;
  tx_queue : pending_tx Queue.t; (* the tx descriptor ring, <= tx_slots *)
  mutable transmitted : string list; (* newest first *)
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
  | 2 -> Queue.length t.free_bufs
  | 3 -> (match Queue.peek_opt t.filled with Some (a, _) -> a | None -> 0)
  | 4 -> (match Queue.peek_opt t.filled with Some (_, l) -> l | None -> 0)
  | 5 -> t.staged_tx_addr
  | 6 -> t.staged_tx_len
  | 7 -> 0
  | 8 -> t.rx_dropped
  | 9 -> tx_slots - Queue.length t.tx_queue
  | _ -> 0

let reg_write t reg v =
  match reg with
  | 0 -> t.ctrl <- v land 0xf
  | 1 ->
    (* write-1-to-clear; clearing RX pops the descriptor *)
    if v land status_rx <> 0 && Queue.length t.filled > 0 then
      ignore (Queue.pop t.filled);
    if Queue.is_empty t.filled then t.status <- t.status land lnot status_rx;
    if v land status_tx_done <> 0 then t.status <- t.status land lnot status_tx_done
  | 2 -> Queue.push v t.free_bufs
  | 5 -> t.staged_tx_addr <- v
  | 6 -> t.staged_tx_len <- v
  | 7 ->
    if v = 1 && t.ctrl land ctrl_tx_enable <> 0 then begin
      (* a kick against a full ring drops the descriptor *)
      if Queue.length t.tx_queue < tx_slots then
        Queue.push { addr = t.staged_tx_addr; len = t.staged_tx_len } t.tx_queue
    end
  | _ -> ()

let interrupt t =
  if t.ctrl land ctrl_irq_enable <> 0 then Machine.raise_irq t.machine t.irq_line

(* One machine tick: complete at most one transmit and one receive DMA. *)
let tick t =
  let phys = Machine.phys t.machine in
  (match Queue.take_opt t.tx_queue with
  | Some { addr; len } ->
    let frame = Bytes.create len in
    Physmem.read_bytes phys addr frame 0 len;
    let frame = Bytes.unsafe_to_string frame in
    t.transmitted <- frame :: t.transmitted;
    if t.ctrl land ctrl_loopback <> 0 then Queue.push frame t.wire_in;
    t.status <- t.status lor status_tx_done;
    interrupt t
  | None -> ());
  if t.ctrl land ctrl_rx_enable <> 0 then begin
    match Queue.peek_opt t.wire_in with
    | None -> ()
    | Some packet ->
      (match Queue.take_opt t.free_bufs with
      | None ->
        ignore (Queue.pop t.wire_in);
        t.rx_dropped <- t.rx_dropped + 1
      | Some buf_addr ->
        ignore (Queue.pop t.wire_in);
        Physmem.write_bytes phys buf_addr (Bytes.unsafe_of_string packet) 0
          (String.length packet);
        Queue.push (buf_addr, String.length packet) t.filled;
        t.status <- t.status lor status_rx;
        interrupt t)
  end

let create machine ~irq_line =
  let t =
    {
      machine;
      irq_line;
      io_base = 0;
      ctrl = 0;
      status = 0;
      free_bufs = Queue.create ();
      filled = Queue.create ();
      wire_in = Queue.create ();
      staged_tx_addr = 0;
      staged_tx_len = 0;
      tx_queue = Queue.create ();
      transmitted = [];
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
  let frames = List.rev t.transmitted in
  t.transmitted <- [];
  frames

let pending_wire t = Queue.length t.wire_in

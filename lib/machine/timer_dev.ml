type t = {
  machine : Machine.t;
  irq_line : int;
  mutable io_base : int;
  mutable period : int;
  mutable ctrl : int;
  mutable count : int;
  mutable fires : int;
}

let ctrl_enable = 1
let ctrl_periodic = 2

let reg_read t = function
  | 0 -> t.period
  | 1 -> t.ctrl
  | 2 -> t.count
  | _ -> 0

let reg_write t reg v =
  match reg with
  | 0 ->
    t.period <- max 1 v;
    t.count <- t.period
  | 1 -> t.ctrl <- v land 3
  | _ -> ()

let tick t =
  if t.ctrl land ctrl_enable <> 0 then begin
    t.count <- t.count - 1;
    if t.count <= 0 then begin
      t.fires <- t.fires + 1;
      if t.ctrl land ctrl_periodic <> 0 then t.count <- t.period
      else t.ctrl <- t.ctrl land lnot ctrl_enable;
      Machine.raise_irq t.machine t.irq_line
    end
  end

let create machine ~irq_line =
  let t = { machine; irq_line; io_base = 0; period = 1; ctrl = 0; count = 1; fires = 0 } in
  let dev =
    Device.make ~name:"timer" ~reg_count:3 ~reg_read:(reg_read t)
      ~reg_write:(reg_write t) ~tick:(fun () -> tick t)
  in
  t.io_base <- Machine.attach_device machine dev;
  t

let io_base t = t.io_base
let fires t = t.fires

module Kernel = Pm_nucleus.Kernel
module Nic = Pm_machine.Nic

let addr_a = 1
let addr_b = 2

type t = {
  a : System.t;
  b : System.t;
  net_a : System.networking;
  net_b : System.networking;
  mutable ferried : int;
}

let create ?(seed = 0xC1) () =
  let a = System.create ~seed () in
  (* node B trusts the same certification authority *)
  let b = System.with_authority ~seed:(seed + 1) (System.authority a) in
  let net_a = System.setup_networking a ~placement:System.Certified ~addr:addr_a () in
  let net_b = System.setup_networking b ~placement:System.Certified ~addr:addr_b () in
  { a; b; net_a; net_b; ferried = 0 }

let node_a t = t.a
let node_b t = t.b
let net_a t = t.net_a
let net_b t = t.net_b

let step t ?(ticks = 1) () =
  for _ = 1 to ticks do
    Kernel.step (System.kernel t.a) ~ticks:1 ();
    Kernel.step (System.kernel t.b) ~ticks:1 ();
    let ferry frames into =
      List.iter
        (fun frame ->
          t.ferried <- t.ferried + 1;
          Nic.inject into frame)
        frames
    in
    ferry
      (Nic.take_transmitted (Kernel.nic (System.kernel t.a)))
      (Kernel.nic (System.kernel t.b));
    ferry
      (Nic.take_transmitted (Kernel.nic (System.kernel t.b)))
      (Kernel.nic (System.kernel t.a))
  done

let frames_delivered t = t.ferried

type 'a t = { mutable next : int; tbl : (int, 'a) Hashtbl.t }

let create () = { next = 1; tbl = Hashtbl.create 64 }

let fresh t =
  let h = t.next in
  t.next <- h + 1;
  h

let put t handle v = Hashtbl.replace t.tbl handle v
let get t handle = Hashtbl.find_opt t.tbl handle
let mem t handle = Hashtbl.mem t.tbl handle
let next t = t.next
let remove t handle = Hashtbl.remove t.tbl handle
let size t = Hashtbl.length t.tbl
let iter t f = Hashtbl.iter (fun _ v -> f v) t.tbl

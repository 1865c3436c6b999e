module Api = Pm_nucleus.Api
module Vmem = Pm_nucleus.Vmem
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx

type block = { off : int; size : int }

type state = {
  base : int; (* heap base vaddr *)
  mutable free : block list; (* sorted by offset *)
  live : (int, int) Hashtbl.t; (* addr -> size *)
  mutable free_bytes : int;
}

let align n = (n + 7) land lnot 7

let alloc st ctx size =
  let size = align (max size 8) in
  let rec take acc = function
    | [] -> None
    | b :: rest ->
      Call_ctx.work ctx 4 (* free-list hop *);
      if b.size >= size then begin
        let remainder =
          if b.size = size then [] else [ { off = b.off + size; size = b.size - size } ]
        in
        Some (b.off, List.rev_append acc (remainder @ rest))
      end
      else take (b :: acc) rest
  in
  match take [] st.free with
  | None -> None
  | Some (off, free) ->
    st.free <- free;
    st.free_bytes <- st.free_bytes - size;
    Hashtbl.replace st.live (st.base + off) size;
    Some (st.base + off)

(* insert back, coalescing with neighbours *)
let free st ctx addr =
  match Hashtbl.find_opt st.live addr with
  | None -> Error (Oerror.Fault (Printf.sprintf "free of unallocated address %#x" addr))
  | Some size ->
    Hashtbl.remove st.live addr;
    st.free_bytes <- st.free_bytes + size;
    let off = addr - st.base in
    let rec insert = function
      | [] -> [ { off; size } ]
      | b :: rest ->
        Call_ctx.work ctx 4;
        if off + size < b.off then { off; size } :: b :: rest
        else if off + size = b.off then { off; size = size + b.size } :: rest
        else if b.off + b.size = off then begin
          match rest with
          | next :: tail when b.off + b.size + size = next.off ->
            { off = b.off; size = b.size + size + next.size } :: tail
          | _ -> { off = b.off; size = b.size + size } :: rest
        end
        else b :: insert rest
    in
    st.free <- insert st.free;
    Ok ()

let create api dom ~heap_pages =
  if heap_pages <= 0 then invalid_arg "Allocator.create: need at least one page";
  let vmem = api.Api.vmem in
  let base = Vmem.alloc_pages vmem dom ~count:heap_pages ~sharing:Vmem.Exclusive in
  let heap_bytes = heap_pages * Pm_machine.Machine.page_size api.Api.machine in
  let st =
    { base; free = [ { off = 0; size = heap_bytes } ]; live = Hashtbl.create 64;
      free_bytes = heap_bytes }
  in
  let iface =
    Iface.make ~name:"allocator"
      [
        Iface.fn1 ~name:"alloc" Iface.Int ~ret:Vtype.Tint (fun ctx size ->
            if size <= 0 then Error (Oerror.Type_error "alloc(size>0)")
            else
              match alloc st ctx size with
              | Some addr -> Ok (Value.Int addr)
              | None -> Error (Oerror.Fault "allocator: out of memory"));
        Iface.fn1 ~name:"free" Iface.Int ~ret:Vtype.Tunit (fun ctx addr ->
            Result.map (fun () -> Value.Unit) (free st ctx addr));
        Iface.fn0 ~name:"avail" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int st.free_bytes));
        Iface.fn0 ~name:"allocated" ~ret:Vtype.Tint (fun _ ->
            Ok (Value.Int (Hashtbl.length st.live)));
      ]
  in
  Instance.create api.Api.registry ~class_name:"toolbox.allocator"
    ~domain:dom.Pm_nucleus.Domain.id [ iface ]

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Vmem = Pm_nucleus.Vmem
module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Physmem = Pm_machine.Physmem
module Blkdev = Pm_machine.Blkdev
module Clock = Pm_machine.Clock
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype

type page_state = {
  mutable frame : int option; (* resident frame, if any *)
  mutable referenced : bool; (* CLOCK reference bit, set on fault *)
  mutable dirty : bool;
  mutable ever_written : bool; (* whether the backing block holds data *)
}

type t = {
  api : Api.t;
  dom : Domain.t;
  disk : Blkdev.t;
  base : int;
  page_size : int;
  budget : int;
  first_block : int;
  pages : page_state array;
  mutable hand : int; (* CLOCK hand, index into [pages] *)
  mutable resident : int;
  mutable faults : int;
  mutable pageins : int;
  mutable pageouts : int;
  mutable inst : Instance.t option;
}

let page_index t vaddr = (vaddr - t.base) / t.page_size
let vaddr_of t idx = t.base + (idx * t.page_size)
let block_of t idx = t.first_block + idx

let phys_of_frame t frame = frame * t.page_size

(* CLOCK second-chance: sweep until an unreferenced resident page turns
   up, clearing reference bits along the way. *)
let pick_victim t =
  let n = Array.length t.pages in
  let rec sweep remaining =
    if remaining = 0 then None
    else begin
      let idx = t.hand in
      t.hand <- (t.hand + 1) mod n;
      let p = t.pages.(idx) in
      match p.frame with
      | None -> sweep (remaining - 1)
      | Some _ when p.referenced ->
        p.referenced <- false;
        sweep (remaining - 1)
      | Some _ -> Some idx
    end
  in
  (* two full sweeps guarantee a victim when anything is resident *)
  match sweep (2 * n) with
  | Some idx -> idx
  | None -> invalid_arg "Pager: no resident page to evict"

let evict t idx =
  let p = t.pages.(idx) in
  match p.frame with
  | None -> ()
  | Some frame ->
    if p.dirty then begin
      Blkdev.write_sync t.disk ~block:(block_of t idx) ~phys_addr:(phys_of_frame t frame);
      t.pageouts <- t.pageouts + 1;
      p.ever_written <- true;
      p.dirty <- false
    end;
    ignore (Vmem.unmap_page t.api.Api.vmem t.dom ~vaddr:(vaddr_of t idx));
    Physmem.release (Machine.phys t.api.Api.machine) frame;
    p.frame <- None;
    t.resident <- t.resident - 1

let page_in t idx =
  if t.resident >= t.budget then evict t (pick_victim t);
  let phys = Machine.phys t.api.Api.machine in
  let frame = Physmem.alloc phys in
  let p = t.pages.(idx) in
  if p.ever_written then begin
    Blkdev.read_sync t.disk ~block:(block_of t idx) ~phys_addr:(phys_of_frame t frame);
    t.pageins <- t.pageins + 1
  end;
  (* map read-only: the first write faults and flips to dirty *)
  Vmem.map_page t.api.Api.vmem t.dom ~vaddr:(vaddr_of t idx) ~frame ~prot:Mmu.Read_only;
  p.frame <- Some frame;
  p.referenced <- true;
  t.resident <- t.resident + 1

(* the per-page fault call-back: resolve non-resident and write-upgrade
   faults; anything else is a genuine protection error *)
let handle_fault t (fault : Mmu.fault) =
  let idx = page_index t fault.Mmu.vaddr in
  if idx < 0 || idx >= Array.length t.pages then false
  else begin
    t.faults <- t.faults + 1;
    Clock.bump (Machine.clock t.api.Api.machine) Clock.Pager_fault;
    let p = t.pages.(idx) in
    match (fault.Mmu.reason, fault.Mmu.access, p.frame) with
    | Mmu.Unmapped, _, None ->
      page_in t idx;
      if fault.Mmu.access = Mmu.Write then begin
        p.dirty <- true;
        Vmem.set_page_prot t.api.Api.vmem t.dom ~vaddr:(vaddr_of t idx) Mmu.Read_write
      end;
      true
    | Mmu.Protection, Mmu.Write, Some _ ->
      p.dirty <- true;
      p.referenced <- true;
      Vmem.set_page_prot t.api.Api.vmem t.dom ~vaddr:(vaddr_of t idx) Mmu.Read_write;
      true
    | _ -> false
  end

let flush t =
  let written = ref 0 in
  Array.iteri
    (fun idx p ->
      match p.frame with
      | Some frame when p.dirty ->
        Blkdev.write_sync t.disk ~block:(block_of t idx) ~phys_addr:(phys_of_frame t frame);
        p.ever_written <- true;
        p.dirty <- false;
        Vmem.set_page_prot t.api.Api.vmem t.dom ~vaddr:(vaddr_of t idx) Mmu.Read_only;
        incr written
      | _ -> ())
    t.pages;
  !written

let make_instance t =
  let iface =
    Iface.make ~name:"pager"
      [
        Iface.fn0 ~name:"base" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int t.base));
        Iface.fn0 ~name:"pages" ~ret:Vtype.Tint (fun _ ->
            Ok (Value.Int (Array.length t.pages)));
        Iface.fn0 ~name:"stats" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
            Ok
              (Value.List
                 [ Value.Int t.faults; Value.Int t.pageins; Value.Int t.pageouts;
                   Value.Int t.resident ]));
        Iface.fn0 ~name:"flush" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int (flush t)));
      ]
  in
  Instance.create t.api.Api.registry ~class_name:"toolbox.pager"
    ~domain:t.dom.Domain.id [ iface ]

let create api dom ~disk ~resident_budget ~backing_pages ~first_block =
  if resident_budget <= 0 then invalid_arg "Pager.create: zero resident budget";
  if backing_pages <= 0 then invalid_arg "Pager.create: zero backing pages";
  if first_block < 0 || first_block + backing_pages > Blkdev.blocks disk then
    invalid_arg "Pager.create: backing blocks exceed disk capacity";
  if Blkdev.block_size disk <> Machine.page_size api.Api.machine then
    invalid_arg "Pager.create: disk block size is not the page size";
  let vmem = api.Api.vmem in
  let base = Vmem.reserve_pages vmem dom ~count:backing_pages in
  let t =
    {
      api;
      dom;
      disk;
      base;
      page_size = Machine.page_size api.Api.machine;
      budget = resident_budget;
      first_block;
      pages =
        Array.init backing_pages (fun _ ->
            { frame = None; referenced = false; dirty = false; ever_written = false });
      hand = 0;
      resident = 0;
      faults = 0;
      pageins = 0;
      pageouts = 0;
      inst = None;
    }
  in
  for idx = 0 to backing_pages - 1 do
    Vmem.set_fault_callback vmem dom ~vaddr:(vaddr_of t idx) (handle_fault t)
  done;
  t.inst <- Some (make_instance t);
  t

let instance t = Option.get t.inst
let base t = t.base
let resident t = t.resident
let faults t = t.faults
let pageins t = t.pageins
let pageouts t = t.pageouts

module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Physmem = Pm_machine.Physmem
module Clock = Pm_machine.Clock
module Obs = Pm_obs.Obs
module Journal = Pm_journal.Journal

type sharing = Exclusive | Shared

exception Vmem_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Vmem_error s)) fmt

type allocation = { frame : int; sharing : sharing }

(* each domain's next free vpage when the mark was taken: vpages are
   handed out in increasing order and never reused, so an allocation was
   made since the mark exactly when its vpage is at or past that *)
type mark = (int * int) list

type io_grant = {
  grant_domain : int;
  device : string;
  io_base : int;
  reg_count : int;
  io_sharing : sharing;
}

type t = {
  machine : Machine.t;
  allocs : (int * int, allocation) Hashtbl.t; (* (domain, vpage) -> allocation *)
  bump : (int, int ref) Hashtbl.t; (* domain -> next free vpage *)
  fault_cbs : (int * int, Mmu.fault -> bool) Hashtbl.t;
  mutable grants : io_grant list;
}

let first_vpage = 256 (* keep low addresses unmapped to catch null derefs *)

(* page-sharing mutations are journalled (plain stores, no cycle
   charges); the page-hygiene lint rule replays these records *)
let jot t ~kind ~domain ~info ~detail =
  let clock = Machine.clock t.machine in
  Journal.record
    (Obs.journal (Clock.obs clock))
    ~kind ~domain ~at:(Clock.now clock) ~info ~detail

let create machine =
  let t =
    {
      machine;
      allocs = Hashtbl.create 64;
      bump = Hashtbl.create 8;
      fault_cbs = Hashtbl.create 16;
      grants = [];
    }
  in
  Machine.set_fault_handler machine
    (Some
       (fun (fault : Mmu.fault) ->
         let vpage = fault.Mmu.vaddr / Machine.page_size machine in
         let fclock = Machine.clock machine in
         (* always-on flight record: unresolved faults are exactly what
            the black box is for *)
         Journal.record
           (Obs.journal (Clock.obs fclock))
           ~kind:Journal.Fault ~domain:fault.Mmu.ctx ~at:(Clock.now fclock) ~info:vpage
           ~detail:"";
         match Hashtbl.find_opt t.fault_cbs (fault.Mmu.ctx, vpage) with
         | Some cb ->
           if Obs.enabled (Clock.obs fclock) then
             (* page-fault handling latency: the whole user callback *)
             Clock.span fclock ~costs:(Machine.costs machine) ~domain:fault.Mmu.ctx
               ~layer:"vmem" ~obj:"nucleus.vmem" ~iface:"fault" ~meth:(string_of_int vpage)
               ~metric:"vmem.fault"
               (fun () -> cb fault)
           else cb fault
         | None -> false));
  t

let next_vpages t dom count =
  let r =
    match Hashtbl.find_opt t.bump dom with
    | Some r -> r
    | None ->
      let r = ref first_vpage in
      Hashtbl.add t.bump dom r;
      r
  in
  let base = !r in
  r := base + count;
  base

let alloc_pages t dom ~count ~sharing =
  if count <= 0 then invalid_arg "Vmem.alloc_pages: count must be positive";
  let mmu = Machine.mmu t.machine in
  let phys = Machine.phys t.machine in
  (* all or nothing: a request that cannot be met maps no page *)
  if Physmem.free_frames phys < count then
    fail "out of physical memory: %d pages asked, %d frames free" count
      (Physmem.free_frames phys);
  let did = dom.Domain.id in
  let base = next_vpages t did count in
  for i = 0 to count - 1 do
    let frame = Physmem.alloc phys in
    Mmu.map mmu did ~vpage:(base + i) ~frame ~prot:Mmu.Read_write;
    Hashtbl.replace t.allocs (did, base + i) { frame; sharing }
  done;
  base * Machine.page_size t.machine

let alloc_of t dom vpage =
  match Hashtbl.find_opt t.allocs (dom.Domain.id, vpage) with
  | Some a -> a
  | None -> fail "page %d is not an allocation of domain %s" vpage dom.Domain.name

(* unmap one live allocation, dropping its frame reference and its fault
   call-back *)
let free_alloc t did vpage a =
  ignore (Mmu.unmap (Machine.mmu t.machine) did ~vpage);
  Physmem.release (Machine.phys t.machine) a.frame;
  Hashtbl.remove t.allocs (did, vpage);
  Hashtbl.remove t.fault_cbs (did, vpage);
  if a.sharing = Shared then
    jot t ~kind:Journal.Page_unshare ~domain:did ~info:a.frame
      ~detail:(Printf.sprintf "vpage %d" vpage)

let free_pages t dom ~vaddr ~count =
  let base = vaddr / Machine.page_size t.machine in
  for i = 0 to count - 1 do
    let vpage = base + i in
    free_alloc t dom.Domain.id vpage (alloc_of t dom vpage)
  done

let release t (did, vpage) =
  match Hashtbl.find_opt t.allocs (did, vpage) with
  | Some a -> free_alloc t did vpage a
  | None -> ()

let mark t = Hashtbl.fold (fun did next acc -> (did, !next) :: acc) t.bump []

let made_since mark (did, vpage) =
  match List.assoc_opt did mark with Some next -> vpage >= next | None -> true

let allocated_since t mark =
  Hashtbl.fold (fun k _ acc -> if made_since mark k then k :: acc else acc) t.allocs []
  |> List.sort compare

let map_shared t ~from_dom ~vaddr ~count ~into ~prot =
  let ps = Machine.page_size t.machine in
  let src_base = vaddr / ps in
  let mmu = Machine.mmu t.machine in
  let phys = Machine.phys t.machine in
  (* validate the whole run before touching anything *)
  let sources =
    List.init count (fun i ->
        let a = alloc_of t from_dom (src_base + i) in
        if a.sharing <> Shared then
          fail "page %d of %s is Exclusive and cannot be shared" (src_base + i)
            from_dom.Domain.name;
        a)
  in
  let dst_base = next_vpages t into.Domain.id count in
  List.iteri
    (fun i a ->
      Physmem.ref_frame phys a.frame;
      Mmu.map mmu into.Domain.id ~vpage:(dst_base + i) ~frame:a.frame ~prot;
      Hashtbl.replace t.allocs (into.Domain.id, dst_base + i)
        { frame = a.frame; sharing = Shared };
      jot t ~kind:Journal.Page_share ~domain:into.Domain.id ~info:a.frame
        ~detail:
          (Printf.sprintf "frame %d from dom %d vpage %d" a.frame
             from_dom.Domain.id (dst_base + i)))
    sources;
  dst_base * ps

let vpage_of t vaddr = vaddr / Machine.page_size t.machine

let set_prot t dom ~vaddr prot =
  ignore (alloc_of t dom (vpage_of t vaddr));
  Mmu.set_prot (Machine.mmu t.machine) dom.Domain.id ~vpage:(vpage_of t vaddr) prot

let set_fault_callback t dom ~vaddr f =
  Hashtbl.replace t.fault_cbs (dom.Domain.id, vpage_of t vaddr) f

let clear_fault_callback t dom ~vaddr =
  Hashtbl.remove t.fault_cbs (dom.Domain.id, vpage_of t vaddr)

let hook_page t dom ~vaddr on =
  Mmu.set_fault_hook (Machine.mmu t.machine) dom.Domain.id ~vpage:(vpage_of t vaddr) on

let pages_of t dom =
  Hashtbl.fold (fun (d, _) _ acc -> if d = dom.Domain.id then acc + 1 else acc) t.allocs 0

let alloc_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.allocs [] |> List.sort compare

let reserve_pages t dom ~count =
  if count <= 0 then invalid_arg "Vmem.reserve_pages: count must be positive";
  let base = next_vpages t dom.Domain.id count in
  base * Machine.page_size t.machine

let map_page t dom ~vaddr ~frame ~prot =
  Mmu.map (Machine.mmu t.machine) dom.Domain.id ~vpage:(vpage_of t vaddr) ~frame ~prot

let unmap_page t dom ~vaddr =
  match Mmu.unmap (Machine.mmu t.machine) dom.Domain.id ~vpage:(vpage_of t vaddr) with
  | frame -> frame
  | exception Invalid_argument _ -> fail "unmap_page: %#x not mapped" vaddr

let set_page_prot t dom ~vaddr prot =
  Mmu.set_prot (Machine.mmu t.machine) dom.Domain.id ~vpage:(vpage_of t vaddr) prot

let phys_of t dom ~vaddr =
  let ps = Machine.page_size t.machine in
  match Mmu.frame_of (Machine.mmu t.machine) dom.Domain.id ~vpage:(vaddr / ps) with
  | Some frame -> (frame * ps) + (vaddr mod ps)
  | None -> fail "phys_of: %#x not mapped in %s" vaddr dom.Domain.name

let destroy_domain t dom =
  let did = dom.Domain.id in
  let mmu = Machine.mmu t.machine in
  let phys = Machine.phys t.machine in
  let mine =
    Hashtbl.fold (fun (d, vp) a acc -> if d = did then (vp, a) :: acc else acc)
      t.allocs []
  in
  List.iter
    (fun (vpage, (a : allocation)) ->
      ignore (Mmu.unmap mmu did ~vpage);
      Physmem.release phys a.frame;
      Hashtbl.remove t.allocs (did, vpage))
    mine;
  let cbs = Hashtbl.fold (fun (d, vp) _ acc -> if d = did then vp :: acc else acc) t.fault_cbs [] in
  List.iter (fun vp -> Hashtbl.remove t.fault_cbs (did, vp)) cbs;
  t.grants <- List.filter (fun g -> g.grant_domain <> did) t.grants;
  Hashtbl.remove t.bump did

let alloc_io t dom ~device ~sharing =
  match Machine.find_device t.machine device with
  | None -> fail "no such device %S" device
  | Some (io_base, reg_count) ->
    let existing = List.filter (fun g -> String.equal g.device device) t.grants in
    if List.exists (fun g -> g.io_sharing = Exclusive) existing then
      fail "device %S is exclusively granted" device;
    if sharing = Exclusive && existing <> [] then
      fail "device %S already has grants; exclusive grant refused" device;
    let g =
      { grant_domain = dom.Domain.id; device; io_base; reg_count; io_sharing = sharing }
    in
    t.grants <- g :: t.grants;
    g

let release_io t grant = t.grants <- List.filter (fun g -> g != grant) t.grants

let check_grant t grant ~reg =
  if not (List.memq grant t.grants) then fail "io grant for %S was released" grant.device;
  if reg < 0 || reg >= grant.reg_count then
    fail "register %d out of range for %S" reg grant.device;
  let cur = Mmu.current_context (Machine.mmu t.machine) in
  if cur <> grant.grant_domain then
    fail "io grant for %S belongs to domain %d, but domain %d is running"
      grant.device grant.grant_domain cur

let io_read t grant ~reg =
  check_grant t grant ~reg;
  Machine.io_read t.machine (grant.io_base + (reg * 4))

let io_write t grant ~reg v =
  check_grant t grant ~reg;
  Machine.io_write t.machine (grant.io_base + (reg * 4)) v

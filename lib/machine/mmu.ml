type context = int
type access = Read | Write | Exec
type fault_reason = Unmapped | Protection | Hooked
type fault = { ctx : context; vaddr : int; access : access; reason : fault_reason }
type prot = No_access | Read_only | Read_write

type entry = { mutable frame : int; mutable prot : prot; mutable fault_hook : bool }

let tlb_size = 64

type t = {
  mutable clock : Clock.t;
      (* the executing CPU's clock: TLB and context-switch charges land
         on whichever CPU drives the MMU; retargeted by Machine when it
         switches CPUs *)
  costs : Cost.t;
  page_size : int;
  contexts : (context, (int, entry) Hashtbl.t) Hashtbl.t;
  mutable next_context : int;
  mutable current : context;
  (* direct-mapped TLB over (ctx, vpage); only caches the current context.
     A slot caches the translation's frame and its protection, so a hit
     serves any access that protection allows *)
  tlb_tags : int array; (* vpage or -1 *)
  tlb_frames : int array;
  tlb_prots : prot array;
}

let create clock costs ~page_size =
  if page_size <= 0 then invalid_arg "Mmu.create";
  let t =
    {
      clock;
      costs;
      page_size;
      contexts = Hashtbl.create 8;
      next_context = 0;
      current = 0;
      tlb_tags = Array.make tlb_size (-1);
      tlb_frames = Array.make tlb_size 0;
      tlb_prots = Array.make tlb_size No_access;
    }
  in
  Hashtbl.add t.contexts 0 (Hashtbl.create 64);
  t.next_context <- 1;
  t

let set_clock t clock = t.clock <- clock

let page_size t = t.page_size

let table_exn t ctx =
  match Hashtbl.find_opt t.contexts ctx with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Mmu: unknown context %d" ctx)

let new_context t =
  let ctx = t.next_context in
  t.next_context <- ctx + 1;
  Hashtbl.add t.contexts ctx (Hashtbl.create 64);
  ctx

let flush_tlb t = Array.fill t.tlb_tags 0 tlb_size (-1)

let delete_context t ctx =
  if ctx = t.current then invalid_arg "Mmu.delete_context: context is current";
  let tbl = table_exn t ctx in
  let frames = Hashtbl.fold (fun _ e acc -> e.frame :: acc) tbl [] in
  Hashtbl.remove t.contexts ctx;
  frames

let switch_context t ctx =
  if ctx <> t.current then begin
    ignore (table_exn t ctx);
    t.current <- ctx;
    flush_tlb t;
    Clock.advance t.clock t.costs.Cost.context_switch;
    Clock.bump t.clock Clock.Context_switch
  end

let current_context t = t.current

let map t ctx ~vpage ~frame ~prot =
  let tbl = table_exn t ctx in
  if Hashtbl.mem tbl vpage then invalid_arg "Mmu.map: page already mapped";
  Hashtbl.add tbl vpage { frame; prot; fault_hook = false }

let entry_exn t ctx vpage =
  match Hashtbl.find_opt (table_exn t ctx) vpage with
  | Some e -> e
  | None -> invalid_arg "Mmu: page not mapped"

let invalidate_tlb_entry t ctx vpage =
  if ctx = t.current then begin
    let slot = vpage land (tlb_size - 1) in
    if t.tlb_tags.(slot) = vpage then t.tlb_tags.(slot) <- -1
  end

let unmap t ctx ~vpage =
  let tbl = table_exn t ctx in
  match Hashtbl.find_opt tbl vpage with
  | None -> invalid_arg "Mmu.unmap: page not mapped"
  | Some e ->
    Hashtbl.remove tbl vpage;
    invalidate_tlb_entry t ctx vpage;
    e.frame

let set_prot t ctx ~vpage prot =
  (entry_exn t ctx vpage).prot <- prot;
  invalidate_tlb_entry t ctx vpage

let set_fault_hook t ctx ~vpage hooked =
  (entry_exn t ctx vpage).fault_hook <- hooked;
  invalidate_tlb_entry t ctx vpage

let is_mapped t ctx ~vpage = Hashtbl.mem (table_exn t ctx) vpage

let frame_of t ctx ~vpage =
  Option.map (fun e -> e.frame) (Hashtbl.find_opt (table_exn t ctx) vpage)

let allows prot access =
  match (prot, access) with
  | Read_write, (Read | Write | Exec) -> true
  | Read_only, (Read | Exec) -> true
  | Read_only, Write -> false
  | No_access, (Read | Write | Exec) -> false

(* TLB hit path: only for the current context, and only for an access
   the cached protection allows; hooked pages are never cached *)
let tlb_hit t ctx vaddr access =
  if vaddr < 0 then invalid_arg "Mmu.translate: negative address";
  let vpage = vaddr / t.page_size in
  let slot = vpage land (tlb_size - 1) in
  if ctx = t.current && t.tlb_tags.(slot) = vpage && allows t.tlb_prots.(slot) access
  then (t.tlb_frames.(slot) * t.page_size) + (vaddr mod t.page_size)
  else -1

let translate t ctx vaddr access =
  let phys = tlb_hit t ctx vaddr access in
  if phys >= 0 then Ok phys
  else begin
    let vpage = vaddr / t.page_size and off = vaddr mod t.page_size in
    let slot = vpage land (tlb_size - 1) in
    match Hashtbl.find_opt (table_exn t ctx) vpage with
    | None -> Error { ctx; vaddr; access; reason = Unmapped }
    | Some e ->
      if e.fault_hook then Error { ctx; vaddr; access; reason = Hooked }
      else if not (allows e.prot access) then
        Error { ctx; vaddr; access; reason = Protection }
      else begin
        if ctx = t.current then begin
          Clock.advance t.clock t.costs.Cost.tlb_fill;
          Clock.bump t.clock Clock.Tlb_fill;
          t.tlb_tags.(slot) <- vpage;
          t.tlb_frames.(slot) <- e.frame;
          t.tlb_prots.(slot) <- e.prot
        end;
        Ok ((e.frame * t.page_size) + off)
      end
  end

let pp_access fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Write -> Format.pp_print_string fmt "write"
  | Exec -> Format.pp_print_string fmt "exec"

let pp_reason fmt = function
  | Unmapped -> Format.pp_print_string fmt "unmapped"
  | Protection -> Format.pp_print_string fmt "protection"
  | Hooked -> Format.pp_print_string fmt "hooked"

let pp_fault fmt f =
  Format.fprintf fmt "fault{ctx=%d; vaddr=0x%x; %a; %a}" f.ctx f.vaddr pp_access
    f.access pp_reason f.reason

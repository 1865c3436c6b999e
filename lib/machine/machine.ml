exception Fatal_fault of Mmu.fault
exception Machine_check of string

let trap_vector_count = 32
let irq_line_count = 16

type attached = { dev : Device.t; io_base : int }

(* one value a layer above keeps per machine, under its own key *)
type local = Local : 'a Type.Id.t * 'a -> local

type cpu = {
  clock : Clock.t;
  mutable halted : bool;
  mutable ipis_sent : int;
  mutable ipis_recv : int;
  mutable synced : int; (* idle cycles absorbed by reconciliation *)
}

type t = {
  cpus : cpu array;
  mutable cur : int; (* the CPU currently executing *)
  mutable active_clock : Clock.t;
      (* [cpus.(cur).clock]; every charge site reads it through [clock]
         at charge time, so switching CPUs redirects all accounting by
         swapping this one field *)
  pins : (int, int) Hashtbl.t; (* domain id -> cpu; unpinned = 0 *)
  costs : Cost.t;
  phys : Physmem.t;
  mmu : Mmu.t;
  traps : (int -> int) option array;
  irqs : (unit -> unit) option array;
  mutable fault_handler : (Mmu.fault -> bool) option;
  mutable attached : attached list; (* newest first *)
  mutable next_io_base : int;
  mutable locals : local list;
}

let io_base_start = 0x1000_0000

let create ?(costs = Cost.default) ?(frames = 1024) ?(page_size = 4096) ?(cpus = 1)
    () =
  if cpus <= 0 then invalid_arg "Machine.create: cpus must be positive";
  (* CPUs power on together; all clocks share CPU 0's observability sink *)
  let boot = Clock.create () in
  let obs = Clock.obs boot in
  let cpu clock = { clock; halted = false; ipis_sent = 0; ipis_recv = 0; synced = 0 } in
  {
    cpus = Array.init cpus (fun i -> cpu (if i = 0 then boot else Clock.create ~obs ()));
    cur = 0;
    active_clock = boot;
    pins = Hashtbl.create 8;
    costs;
    phys = Physmem.create ~frames ~page_size;
    mmu = Mmu.create boot costs ~page_size;
    traps = Array.make trap_vector_count None;
    irqs = Array.make irq_line_count None;
    fault_handler = None;
    attached = [];
    next_io_base = io_base_start;
    locals = [];
  }

let clock t = t.active_clock
let cpus t = t.cpus
let current_cpu t = t.cur
let pins t = t.pins

let switch_cpu t k =
  if k < 0 || k >= Array.length t.cpus then
    invalid_arg
      (Printf.sprintf "Machine.switch_cpu: no cpu %d (machine has %d)" k
         (Array.length t.cpus));
  if k <> t.cur then begin
    t.cur <- k;
    t.active_clock <- t.cpus.(k).clock;
    Mmu.set_clock t.mmu t.active_clock;
    Pm_journal.Journal.set_cpu (Pm_obs.Obs.journal (Clock.obs t.active_clock)) k
  end

let local (type a) t (key : a Type.Id.t) (make : unit -> a) : a =
  let rec find : local list -> a = function
    | [] ->
      let v = make () in
      t.locals <- Local (key, v) :: t.locals;
      v
    | Local (k, v) :: rest -> (
      match Type.Id.provably_equal k key with
      | Some Type.Equal -> v
      | None -> find rest)
  in
  find t.locals

let costs t = t.costs
let phys t = t.phys
let mmu t = t.mmu
let page_size t = Physmem.page_size t.phys

let check_vec kind max vec =
  if vec < 0 || vec >= max then
    raise (Machine_check (Printf.sprintf "bad %s number %d" kind vec))

let set_trap_handler t vec h =
  check_vec "trap vector" trap_vector_count vec;
  t.traps.(vec) <- h

let run_trap t vec arg =
  match t.traps.(vec) with
  | Some h -> h arg
  | None -> raise (Machine_check (Printf.sprintf "unhandled trap %d" vec))

let raise_trap t vec arg =
  check_vec "trap vector" trap_vector_count vec;
  Clock.advance t.active_clock t.costs.Cost.trap;
  Clock.bump t.active_clock Clock.Trap;
  run_trap t vec arg

(* Code already in the kernel's protection domain needs no protection
   crossing to reach the handler: a procedure call runs it. *)
let call_trap t vec arg =
  check_vec "trap vector" trap_vector_count vec;
  Clock.advance t.active_clock t.costs.Cost.call;
  run_trap t vec arg

let set_irq_handler t line h =
  check_vec "irq line" irq_line_count line;
  t.irqs.(line) <- h

let raise_irq t line =
  check_vec "irq line" irq_line_count line;
  Clock.advance t.active_clock t.costs.Cost.interrupt;
  Clock.bump t.active_clock Clock.Interrupt;
  match t.irqs.(line) with
  | Some h -> h ()
  | None -> Clock.bump t.active_clock Clock.Spurious_interrupt

let set_fault_handler t h = t.fault_handler <- h

(* Resolve a virtual address, invoking the fault handler on faults and
   retrying once if it claims resolution. A TLB hit is answered without
   building a result, and the rest is a top-level loop, so that a
   resolve allocates nothing unless it misses. *)
let rec resolve_from t ctx vaddr access attempts =
  match Mmu.translate t.mmu ctx vaddr access with
  | Ok phys -> phys
  | Error fault ->
    Clock.advance t.active_clock t.costs.Cost.page_fault;
    Clock.bump t.active_clock Clock.Page_fault;
    let resolved =
      match t.fault_handler with
      | Some h when attempts < 2 -> h fault
      | _ -> false
    in
    if resolved then resolve_from t ctx vaddr access (attempts + 1)
    else raise (Fatal_fault fault)

let resolve t ctx vaddr access =
  let phys = Mmu.tlb_hit t.mmu ctx vaddr access in
  if phys >= 0 then phys else resolve_from t ctx vaddr access 0

let read8 t ctx vaddr =
  Clock.advance t.active_clock t.costs.Cost.mem_read;
  Physmem.read8 t.phys (resolve t ctx vaddr Mmu.Read)

let write8 t ctx vaddr v =
  Clock.advance t.active_clock t.costs.Cost.mem_write;
  Physmem.write8 t.phys (resolve t ctx vaddr Mmu.Write) v

(* A page-straddling word decomposes into four byte accesses, and each
   byte access pays its own charge: the word itself is not charged. *)
let read32 t ctx vaddr =
  let ps = page_size t in
  if vaddr mod ps <= ps - 4 then begin
    Clock.advance t.active_clock t.costs.Cost.mem_read;
    Physmem.read32 t.phys (resolve t ctx vaddr Mmu.Read)
  end
  else
    read8 t ctx vaddr
    lor (read8 t ctx (vaddr + 1) lsl 8)
    lor (read8 t ctx (vaddr + 2) lsl 16)
    lor (read8 t ctx (vaddr + 3) lsl 24)

let write32 t ctx vaddr v =
  let ps = page_size t in
  if vaddr mod ps <= ps - 4 then begin
    Clock.advance t.active_clock t.costs.Cost.mem_write;
    Physmem.write32 t.phys (resolve t ctx vaddr Mmu.Write) v
  end
  else begin
    write8 t ctx vaddr v;
    write8 t ctx (vaddr + 1) (v lsr 8);
    write8 t ctx (vaddr + 2) (v lsr 16);
    write8 t ctx (vaddr + 3) (v lsr 24)
  end

(* A bulk copy goes a page segment at a time. The segment's first byte
   is charged and resolved exactly as [read8]/[write8] would (charge,
   then translate, TLB fill or fault handler). Once a byte of a page has
   resolved, no later byte of that page can miss the TLB, fill, fault or
   charge anything on the current context, and off it a translation
   charges nothing: so the rest of the segment is [n - 1] bus accesses
   and one blit, and every cycle and counter matches a byte loop's.
   A top-level loop, so that a copy allocates nothing. *)
let rec copy_from t ctx vaddr buf len access cost d =
  if d < len then begin
    let ps = page_size t in
    let va = vaddr + d in
    Clock.advance t.active_clock cost;
    let pa = resolve t ctx va access in
    let n = min (len - d) (ps - (va mod ps)) in
    (match access with
    | Mmu.Write -> Physmem.write_bytes t.phys pa buf d n
    | _ -> Physmem.read_bytes t.phys pa buf d n);
    Clock.advance t.active_clock ((n - 1) * cost);
    copy_from t ctx vaddr buf len access cost (d + n)
  end

let copy t ctx vaddr buf len access =
  let cost =
    match access with Mmu.Write -> t.costs.Cost.mem_write | _ -> t.costs.Cost.mem_read
  in
  copy_from t ctx vaddr buf len access cost 0

let read_bytes t ctx vaddr len =
  let b = Bytes.create len in
  copy t ctx vaddr b len Mmu.Read;
  b

let write_bytes t ctx vaddr b = copy t ctx vaddr b (Bytes.length b) Mmu.Write
let read_string t ctx vaddr len = Bytes.unsafe_to_string (read_bytes t ctx vaddr len)
let write_string t ctx vaddr s = write_bytes t ctx vaddr (Bytes.unsafe_of_string s)

let attach_device t dev =
  let io_base = t.next_io_base in
  t.next_io_base <- io_base + (dev.Device.reg_count * 4);
  t.attached <- { dev; io_base } :: t.attached;
  io_base

(* The device whose register window holds [addr]. A top-level loop that
   returns the attachment, so that a register access allocates nothing. *)
let rec find_io addr = function
  | [] -> raise (Machine_check (Printf.sprintf "no device at io address 0x%x" addr))
  | a :: rest ->
    if addr >= a.io_base && addr < a.io_base + (a.dev.Device.reg_count * 4) then a
    else find_io addr rest

let locate_io t addr =
  let a = find_io addr t.attached in
  if (addr - a.io_base) mod 4 <> 0 then
    raise (Machine_check (Printf.sprintf "unaligned io access 0x%x" addr));
  a

let io_read t addr =
  Clock.advance t.active_clock t.costs.Cost.io_read;
  let a = locate_io t addr in
  a.dev.Device.reg_read ((addr - a.io_base) / 4)

let io_write t addr v =
  Clock.advance t.active_clock t.costs.Cost.io_write;
  let a = locate_io t addr in
  a.dev.Device.reg_write ((addr - a.io_base) / 4) v

let devices t =
  List.rev_map (fun a -> (a.dev.Device.name, a.io_base, a.dev.Device.reg_count)) t.attached

let find_device t name =
  List.find_opt (fun a -> String.equal a.dev.Device.name name) t.attached
  |> Option.map (fun a -> (a.io_base, a.dev.Device.reg_count))

let tick t = List.iter (fun a -> a.dev.Device.tick ()) t.attached

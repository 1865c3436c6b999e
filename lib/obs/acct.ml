(* Per-domain resource accounting. One mutable slot per protection
   domain, updated from the existing instrumentation points (Invoke /
   Events / Vmem / Proxy / Scheduler) inside their [Obs.enabled]
   branches — so accounting shares the spans' zero-cost-when-off
   guarantee and never calls [Clock.advance] itself. *)

type slot = {
  mutable cycles : int; (* instrumented cycles attributed to the domain *)
  mutable dispatches : int;
  mutable traps : int;
  mutable irqs : int;
  mutable faults : int;
  mutable crossings : int;
  mutable crossing_cycles : int;
  mutable sched_runs : int;
  mutable pages : int; (* gauge: pages held, refreshed by the stats service *)
}

type t = (int, slot) Hashtbl.t

let create () : t = Hashtbl.create 8

let fresh () =
  { cycles = 0; dispatches = 0; traps = 0; irqs = 0; faults = 0; crossings = 0;
    crossing_cycles = 0; sched_runs = 0; pages = 0 }

let slot (t : t) domain =
  match Hashtbl.find_opt t domain with
  | Some s -> s
  | None ->
    let s = fresh () in
    Hashtbl.add t domain s;
    s

let find (t : t) domain = Hashtbl.find_opt t domain

let domains (t : t) =
  Hashtbl.fold (fun d _ acc -> d :: acc) t [] |> List.sort_uniq compare

(* zero every slot in place: Domain.t holds the same records *)
let reset (t : t) =
  Hashtbl.iter
    (fun _ s ->
      s.cycles <- 0;
      s.dispatches <- 0;
      s.traps <- 0;
      s.irqs <- 0;
      s.faults <- 0;
      s.crossings <- 0;
      s.crossing_cycles <- 0;
      s.sched_runs <- 0;
      s.pages <- 0)
    t

let copy s = { s with cycles = s.cycles }

(* counters subtract; [pages] is a gauge and keeps the [after] value *)
let sub ~after ~before =
  {
    cycles = after.cycles - before.cycles;
    dispatches = after.dispatches - before.dispatches;
    traps = after.traps - before.traps;
    irqs = after.irqs - before.irqs;
    faults = after.faults - before.faults;
    crossings = after.crossings - before.crossings;
    crossing_cycles = after.crossing_cycles - before.crossing_cycles;
    sched_runs = after.sched_runs - before.sched_runs;
    pages = after.pages;
  }

(* charge helpers — call sites pass the cycles their span measured *)

let dispatch t ~domain n =
  let s = slot t domain in
  s.dispatches <- s.dispatches + 1;
  s.cycles <- s.cycles + n

let trap t ~domain n =
  let s = slot t domain in
  s.traps <- s.traps + 1;
  s.cycles <- s.cycles + n

let irq t ~domain n =
  let s = slot t domain in
  s.irqs <- s.irqs + 1;
  s.cycles <- s.cycles + n

let fault t ~domain n =
  let s = slot t domain in
  s.faults <- s.faults + 1;
  s.cycles <- s.cycles + n

let crossing t ~domain n =
  let s = slot t domain in
  s.crossings <- s.crossings + 1;
  s.crossing_cycles <- s.crossing_cycles + n;
  s.cycles <- s.cycles + n

let sched t ~domain =
  let s = slot t domain in
  s.sched_runs <- s.sched_runs + 1

let fields s =
  [
    ("cycles", s.cycles);
    ("dispatches", s.dispatches);
    ("traps", s.traps);
    ("irqs", s.irqs);
    ("faults", s.faults);
    ("crossings", s.crossings);
    ("crossing_cycles", s.crossing_cycles);
    ("sched_runs", s.sched_runs);
    ("pages", s.pages);
  ]

let field s name = List.assoc_opt name (fields s)

let line s =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (fields s))

let to_json s =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) (fields s))
  ^ "}"

type t = {
  mutable enabled : bool;
  mutable resets : int;
  metrics : Metrics.t;
  journal : Pm_journal.Journal.t;
}

let create () =
  {
    enabled = false;
    resets = 0;
    metrics = Metrics.create ();
    journal = Pm_journal.Journal.create ();
  }

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false
let metrics t = t.metrics
let journal t = t.journal
let resets t = t.resets

let observe t ~domain name v = Metrics.observe t.metrics ~domain name v
let incr t ~domain name = Metrics.incr t.metrics ~domain name
let set_gauge t ~domain name v = Metrics.set_gauge t.metrics ~domain name v

(* The journal is the system's history — boot binds, page shares,
   transaction ids — not an observability buffer, so a reset leaves it
   alone. The count tells readers holding a baseline that it is gone. *)
let reset t =
  Metrics.reset t.metrics;
  t.resets <- t.resets + 1

type account = {
  cycles : int;
  dispatches : int;
  traps : int;
  irqs : int;
  faults : int;
  crossings : int;
  crossing_cycles : int;
  sched_runs : int;
}

(* The one mapping from metrics to accounting: each span kind's sample
   count is how often it ran in the domain, its sum the cycles it took. *)
let account t ~domain =
  let totals name =
    match Metrics.summary t.metrics ~domain name with
    | Some s -> (s.Metrics.count, s.Metrics.sum)
    | None -> (0, 0)
  in
  let dispatches, dispatch_cycles = totals "invoke.dispatch" in
  let traps, trap_cycles = totals "events.trap" in
  let irqs, irq_cycles = totals "events.irq" in
  let faults, fault_cycles = totals "vmem.fault" in
  let crossings, crossing_cycles = totals "proxy.call" in
  {
    cycles = dispatch_cycles + trap_cycles + irq_cycles + fault_cycles + crossing_cycles;
    dispatches; traps; irqs; faults; crossings; crossing_cycles;
    sched_runs = Metrics.counter t.metrics ~domain "sched.switches";
  }

let account_fields a =
  [
    ("cycles", a.cycles);
    ("dispatches", a.dispatches);
    ("traps", a.traps);
    ("irqs", a.irqs);
    ("faults", a.faults);
    ("crossings", a.crossings);
    ("crossing_cycles", a.crossing_cycles);
    ("sched_runs", a.sched_runs);
  ]

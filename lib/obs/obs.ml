type t = {
  mutable enabled : bool;
  metrics : Metrics.t;
  acct : Acct.t;
  journal : Pm_journal.Journal.t;
}

let create () =
  {
    enabled = false;
    metrics = Metrics.create ();
    acct = Acct.create ();
    journal = Pm_journal.Journal.create ();
  }

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false
let metrics t = t.metrics
let acct t = t.acct
let journal t = t.journal

let observe t ~domain name v = Metrics.observe t.metrics ~domain name v
let incr t ~domain name = Metrics.incr t.metrics ~domain name
let add t ~domain name n = Metrics.add t.metrics ~domain name n
let set_gauge t ~domain name v = Metrics.set_gauge t.metrics ~domain name v

(* The journal is the system's history — boot binds, page shares,
   transaction ids — not an observability buffer, so a reset leaves it
   alone. Accounting slots are zeroed in place: Domain.t aliases them. *)
let reset t =
  Metrics.reset t.metrics;
  Acct.reset t.acct

type t = {
  mutable cycles : int;
  counters : (string, int ref) Hashtbl.t;
  obs : Pm_obs.Obs.t;
}

let create ?obs () =
  let obs = match obs with Some o -> o | None -> Pm_obs.Obs.create () in
  { cycles = 0; counters = Hashtbl.create 16; obs }

let advance t n =
  assert (n >= 0);
  t.cycles <- t.cycles + n

(* Reconciliation: pull this clock forward to a point in global virtual
   time (never backward). Returns the idle cycles absorbed, so callers
   can count them. *)
let advance_to t n =
  if n > t.cycles then begin
    let d = n - t.cycles in
    t.cycles <- n;
    d
  end
  else 0

let now t = t.cycles

let obs t = t.obs

let count_n t name n =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.counters name (ref n)

let count t name = count_n t name 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  t.cycles <- 0;
  Hashtbl.reset t.counters

let measure t f =
  let before = now t in
  let result = f () in
  (result, now t - before)

module Journal = Pm_journal.Journal

(* The one span recorder. With the observability flag on, [f] runs
   between Span_enter/Span_exit journal events; one simulated store
   books the completed span and its inclusive cycles become one sample
   of [metric] in the span's domain. An exception still records the exit
   (without the booking store or the sample) and is re-raised; the exit
   always carries the enter's rid, whatever ambient request [f] left
   behind. *)
let span t ~costs ~domain ~layer ~obj ~iface ~meth ?metric f =
  if not (Pm_obs.Obs.enabled t.obs) then f ()
  else begin
    let j = Pm_obs.Obs.journal t.obs in
    let detail = String.concat "" [ layer; " "; iface; "."; meth; " "; obj ] in
    let rid = Pm_journal.Trace.current () and t0 = t.cycles in
    let jot kind = Journal.record j ~rid ~kind ~domain ~at:t.cycles ~info:0 ~detail in
    jot Journal.Span_enter;
    match f () with
    | r ->
      advance t (Cost.span_store costs);
      jot Journal.Span_exit;
      (match metric with
      | Some name -> Pm_obs.Obs.observe t.obs ~domain name (t.cycles - t0)
      | None -> ());
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      jot Journal.Span_exit;
      Printexc.raise_with_backtrace e bt
  end

type snapshot = { at : int; counts : (string * int) list }

let snapshot t = { at = t.cycles; counts = counters t }

let diff ~before ~after =
  let find name l = Option.value ~default:0 (List.assoc_opt name l) in
  let names =
    List.sort_uniq String.compare
      (List.map fst before.counts @ List.map fst after.counts)
  in
  {
    at = after.at - before.at;
    counts =
      List.filter_map
        (fun name ->
          match find name after.counts - find name before.counts with
          | 0 -> None
          | d -> Some (name, d))
        names;
  }

let since t before = diff ~before ~after:(snapshot t)

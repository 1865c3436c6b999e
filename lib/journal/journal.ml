(* The system journal: an event-sourced history of everything the
   nucleus mediates. Execution events (traps, interrupts, faults,
   crossings, dispatches, lint runs, crashes) and structural mutations
   (install, bind, interpose, page sharing, domain lifecycle,
   transactions) land in one cycle-stamped stream, and so do the
   observability spans. The flight recorder and the span tree are
   views over its tail, not separate recorders.

   Recording is plain OCaml stores and charges no simulated cycles —
   the history is a property of the run, not a perturbation of it.
   Because the simulated machine is deterministic, a [Full]-mode
   journal is also a *replayable* one: re-running the same scenario on
   a fresh system must reproduce the export byte for byte (see Replay /
   bin/pm_replay).

   Two modes:
   - [Tail] (default): only a bounded ring of recent events is kept —
     the flight recorder's memory bound — plus the structural archive,
     which is always complete (mutations are rare).
   - [Full]: every event is retained, up to [retain]; beyond that the
     oldest events are compacted away (counted, never silently). *)

type kind =
  (* execution *)
  | Trap
  | Irq
  | Fault
  | Crossing
  | Sched
  | Check
  | Crash
  (* structural mutations *)
  | Install
  | Detach
  | Bind
  | Unbind
  | Interpose
  | Uninterpose
  | Handler_add
  | Handler_del
  | Page_share
  | Page_unshare
  | Domain_up
  | Domain_down
  | Migrate
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Mark
  (* device events (appended; the export format indexes kinds by name,
     but replay byte-identity wants stable ordering of what exists) *)
  | Blk_issue
  | Blk_complete
  | Cache_flush
  (* causal tracing (appended; recorded only while Trace.enabled, so
     untraced exports never contain them) *)
  | Req_begin
  | Req_end
  | Span_enter
  | Span_exit
  | Trace_note

let all_kinds =
  [
    Trap; Irq; Fault; Crossing; Sched; Check; Crash; Install; Detach; Bind;
    Unbind; Interpose; Uninterpose; Handler_add; Handler_del; Page_share;
    Page_unshare; Domain_up; Domain_down; Migrate; Txn_begin; Txn_commit;
    Txn_abort; Mark; Blk_issue; Blk_complete; Cache_flush; Req_begin;
    Req_end; Span_enter; Span_exit; Trace_note;
  ]

let kind_index = function
  | Trap -> 0
  | Irq -> 1
  | Fault -> 2
  | Crossing -> 3
  | Sched -> 4
  | Check -> 5
  | Crash -> 6
  | Install -> 7
  | Detach -> 8
  | Bind -> 9
  | Unbind -> 10
  | Interpose -> 11
  | Uninterpose -> 12
  | Handler_add -> 13
  | Handler_del -> 14
  | Page_share -> 15
  | Page_unshare -> 16
  | Domain_up -> 17
  | Domain_down -> 18
  | Migrate -> 19
  | Txn_begin -> 20
  | Txn_commit -> 21
  | Txn_abort -> 22
  | Mark -> 23
  | Blk_issue -> 24
  | Blk_complete -> 25
  | Cache_flush -> 26
  | Req_begin -> 27
  | Req_end -> 28
  | Span_enter -> 29
  | Span_exit -> 30
  | Trace_note -> 31

let kind_count = List.length all_kinds

(* Device events are execution events: they recur on the hot path, so
   they must live in the bounded tail ring, not the ever-complete
   structural archive. *)
let is_execution = function
  | Trap | Irq | Fault | Crossing | Sched | Check | Crash | Blk_issue
  | Blk_complete | Cache_flush | Req_begin | Req_end | Span_enter
  | Span_exit | Trace_note ->
      true
  | _ -> false

let is_structural k = not (is_execution k)

let kind_to_string = function
  | Trap -> "trap"
  | Irq -> "irq"
  | Fault -> "fault"
  | Crossing -> "crossing"
  | Sched -> "sched"
  | Check -> "check"
  | Crash -> "crash"
  | Install -> "install"
  | Detach -> "detach"
  | Bind -> "bind"
  | Unbind -> "unbind"
  | Interpose -> "interpose"
  | Uninterpose -> "uninterpose"
  | Handler_add -> "handler-add"
  | Handler_del -> "handler-del"
  | Page_share -> "page-share"
  | Page_unshare -> "page-unshare"
  | Domain_up -> "domain-up"
  | Domain_down -> "domain-down"
  | Migrate -> "migrate"
  | Txn_begin -> "txn-begin"
  | Txn_commit -> "txn-commit"
  | Txn_abort -> "txn-abort"
  | Mark -> "mark"
  | Blk_issue -> "blk-issue"
  | Blk_complete -> "blk-complete"
  | Cache_flush -> "cache-flush"
  | Req_begin -> "req-begin"
  | Req_end -> "req-end"
  | Span_enter -> "span-enter"
  | Span_exit -> "span-exit"
  | Trace_note -> "trace-note"

let kind_of_string s =
  List.find_opt (fun k -> String.equal (kind_to_string k) s) all_kinds

type event = {
  seq : int;
  at : int; (* virtual-cycle timestamp *)
  domain : int;
  kind : kind;
  info : int;
  detail : string; (* "" on hot paths; human/replay context elsewhere *)
  rid : int; (* causal request id, 0 when untraced *)
  cpu : int; (* issuing CPU, 0 on uniprocessor runs *)
}

type mode = Tail | Full

let mode_to_string = function Tail -> "tail" | Full -> "full"
let mode_of_string = function
  | "tail" -> Some Tail
  | "full" -> Some Full
  | _ -> None

(* ---------------- growable event buffer with front-dropping ---------- *)

let dummy =
  { seq = -1; at = 0; domain = 0; kind = Trap; info = 0; detail = ""; rid = 0;
    cpu = 0 }

type buf = {
  mutable arr : event array;
  mutable start : int; (* first live index *)
  mutable len : int; (* live count: indices [start, start+len) *)
}

let buf_create () = { arr = Array.make 16 dummy; start = 0; len = 0 }

let buf_push b e =
  let fill = b.start + b.len in
  if fill = Array.length b.arr then begin
    if b.start > Array.length b.arr / 2 then begin
      (* reclaim the dropped front instead of growing *)
      Array.blit b.arr b.start b.arr 0 b.len;
      Array.fill b.arr b.len b.start dummy;
      b.start <- 0
    end
    else begin
      let bigger = Array.make (max 16 (2 * Array.length b.arr)) dummy in
      Array.blit b.arr b.start bigger 0 b.len;
      b.arr <- bigger;
      b.start <- 0
    end
  end;
  b.arr.(b.start + b.len) <- e;
  b.len <- b.len + 1

let buf_drop_front b n =
  let n = min n b.len in
  Array.fill b.arr b.start n dummy;
  b.start <- b.start + n;
  b.len <- b.len - n

let buf_to_list b = List.init b.len (fun i -> b.arr.(b.start + i))
let buf_iter f b =
  for i = 0 to b.len - 1 do
    f b.arr.(b.start + i)
  done

let buf_clear b =
  b.arr <- Array.make 16 dummy;
  b.start <- 0;
  b.len <- 0

(* ---------------- the journal ---------------------------------------- *)

(* The tail ring keeps one column per event field, so recording an
   execution event stores seven fields and allocates nothing; [tail]
   builds the records when it is read. Slot [s mod tail_cap] holds the
   event of seq [s], and the ring holds seqs [written - min written
   tail_cap, written). *)
type t = {
  mutable mode : mode;
  tail_cap : int;
  tail_at : int array;
  tail_domain : int array;
  tail_kind : kind array;
  tail_info : int array;
  tail_detail : string array;
  tail_rid : int array;
  tail_cpu : int array;
  mutable written : int; (* events ever recorded *)
  mutable exec_written : int;
  counts : int array; (* per kind *)
  history : buf; (* complete stream, [Full] mode only *)
  mutable history_from : int; (* seq where [Full] recording began; -1 never *)
  mutable compacted : int; (* events dropped from [history] *)
  retain : int; (* history bound before compaction *)
  structural : buf; (* always-on archive of structural events *)
  mutable cpu : int; (* the executing CPU, stamped on every event *)
}

let default_tail_capacity = 256
let default_retain = 1_000_000

(* New journals start in this mode: the replay harness flips it to
   [Full] around a recorded run so even boot-time events are captured. *)
let default_mode = ref Tail
let set_default_mode m = default_mode := m

let create ?(tail_capacity = default_tail_capacity) ?(retain = default_retain)
    () =
  if tail_capacity <= 0 then
    invalid_arg "Journal.create: tail_capacity must be positive";
  if retain <= 0 then invalid_arg "Journal.create: retain must be positive";
  {
    mode = !default_mode;
    tail_cap = tail_capacity;
    tail_at = Array.make tail_capacity 0;
    tail_domain = Array.make tail_capacity 0;
    tail_kind = Array.make tail_capacity Trap;
    tail_info = Array.make tail_capacity 0;
    tail_detail = Array.make tail_capacity "";
    tail_rid = Array.make tail_capacity 0;
    tail_cpu = Array.make tail_capacity 0;
    written = 0;
    exec_written = 0;
    counts = Array.make kind_count 0;
    history = buf_create ();
    history_from = (match !default_mode with Full -> 0 | Tail -> -1);
    compacted = 0;
    retain;
    structural = buf_create ();
    cpu = 0;
  }

let mode t = t.mode
let set_cpu t c = t.cpu <- c

(* Switching to [Full] starts a fresh complete stream from the current
   sequence number; switching to [Tail] stops extending it (what was
   captured stays readable). *)
let set_mode t m =
  if m <> t.mode then begin
    t.mode <- m;
    match m with
    | Full ->
      buf_clear t.history;
      t.compacted <- 0;
      t.history_from <- t.written
    | Tail -> ()
  end

(* Every event is stamped with the ambient request id; with tracing
   off [Trace.current] is pinned to 0 — no call-site changes, no cost.
   [rid] overrides it: a span's exit carries its enter's id even when
   the body re-established another one. *)
let record ?rid t ~kind ~domain ~at ~info ~detail =
  let rid = match rid with Some r -> r | None -> Trace.current () in
  let seq = t.written and i = t.written mod t.tail_cap in
  t.tail_at.(i) <- at;
  t.tail_domain.(i) <- domain;
  t.tail_kind.(i) <- kind;
  t.tail_info.(i) <- info;
  t.tail_detail.(i) <- detail;
  t.tail_rid.(i) <- rid;
  t.tail_cpu.(i) <- t.cpu;
  t.written <- seq + 1;
  let execution = is_execution kind in
  if execution then t.exec_written <- t.exec_written + 1;
  t.counts.(kind_index kind) <- t.counts.(kind_index kind) + 1;
  if (not execution) || t.mode = Full then begin
    let e = { seq; at; domain; kind; info; detail; rid; cpu = t.cpu } in
    if not execution then buf_push t.structural e;
    if t.mode = Full then begin
      buf_push t.history e;
      if t.history.len > t.retain then begin
        let drop = t.history.len - t.retain in
        buf_drop_front t.history drop;
        t.compacted <- t.compacted + drop
      end
    end
  end

let written t = t.written
let exec_written t = t.exec_written
let count t kind = t.counts.(kind_index kind)
let tail_capacity t = t.tail_cap
let retained t = t.history.len
let compacted t = t.compacted

(* [complete t] — the history covers the whole run: recording has been
   [Full] since event 0 and nothing was compacted away. *)
let complete t = t.history_from = 0 && t.compacted = 0

let tail_event t seq =
  let i = seq mod t.tail_cap in
  {
    seq;
    at = t.tail_at.(i);
    domain = t.tail_domain.(i);
    kind = t.tail_kind.(i);
    info = t.tail_info.(i);
    detail = t.tail_detail.(i);
    rid = t.tail_rid.(i);
    cpu = t.tail_cpu.(i);
  }

(* surviving tail-ring events of the kinds [keep] accepts, oldest first *)
let tail_where t keep =
  let first = t.written - min t.written t.tail_cap in
  let rec collect seq acc =
    if seq < first then acc
    else
      collect (seq - 1)
        (if keep t.tail_kind.(seq mod t.tail_cap) then tail_event t seq :: acc else acc)
  in
  collect (t.written - 1) []

let tail t = tail_where t (fun _ -> true)

let history t = buf_to_list t.history
let structural t = buf_to_list t.structural

let reset t =
  Array.fill t.tail_detail 0 t.tail_cap "";
  t.written <- 0;
  t.exec_written <- 0;
  Array.fill t.counts 0 kind_count 0;
  buf_clear t.history;
  t.history_from <- (match t.mode with Full -> 0 | Tail -> -1);
  t.compacted <- 0;
  buf_clear t.structural

let mark t ~domain ~at label =
  let seq = t.written in
  record t ~kind:Mark ~domain ~at ~info:0 ~detail:label;
  seq

(* ---------------- causal tracing helpers ----------------------------- *)

(* Ingress: mint a request id, make it ambient, journal the begin.
   No-ops (returning rid 0) when tracing is off, so instrumented call
   sites stay free on untraced runs. *)
let req_begin t ~domain ~at ~detail =
  if not (Trace.enabled ()) then 0
  else begin
    let rid = Trace.mint () in
    Trace.set_current rid;
    record t ~kind:Req_begin ~domain ~at ~info:rid ~detail;
    rid
  end

let req_end t ~domain ~at rid =
  if Trace.enabled () && rid <> 0 then begin
    Trace.set_current rid;
    record t ~kind:Req_end ~domain ~at ~info:rid ~detail:"";
    Trace.clear ()
  end

(* ---------------- rendering ------------------------------------------ *)

let event_to_text e =
  Printf.sprintf "#%-6d %8d cyc  dom %-2d %-12s %d%s%s%s" e.seq e.at e.domain
    (kind_to_string e.kind) e.info
    (if e.rid = 0 then "" else Printf.sprintf "  rid=%d" e.rid)
    (if e.cpu = 0 then "" else Printf.sprintf "  cpu=%d" e.cpu)
    (if String.equal e.detail "" then "" else "  " ^ e.detail)

let stats_line t =
  Printf.sprintf
    "journal: mode %s, %d recorded (%d exec, %d structural), %d retained, %d compacted"
    (mode_to_string t.mode) t.written t.exec_written
    (t.written - t.exec_written) t.history.len t.compacted

let to_text t =
  String.concat "\n" (stats_line t :: List.map event_to_text (tail t))

(* the [n] most recent of [evs] *)
let last n evs =
  let len = List.length evs in
  if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs

let tail_to_text t n = String.concat "\n" (List.map event_to_text (last n (tail t)))

(* ---------------- views over the tail -------------------------------- *)

(* The flight recorder: the tail restricted to the always-on records a
   post-mortem wants — traps, interrupts, faults, crossings, dispatches,
   lint runs and crashes. *)
let in_flight = function
  | Trap | Irq | Fault | Crossing | Sched | Check | Crash -> true
  | _ -> false

let flight t = tail_where t in_flight

let flight_to_text t n =
  let evs = flight t in
  let shown = if n > 0 then last n evs else evs in
  let recorded =
    List.fold_left (fun acc k -> if in_flight k then acc + count t k else acc) 0 all_kinds
  in
  String.concat "\n"
    (Printf.sprintf "flight: %d recorded, %d shown" recorded (List.length shown)
    :: List.map event_to_text shown)

type span = { enter : event; exit_at : int; depth : int }

(* Completed spans in the tail, in completion order. Every span helper
   closes LIFO, so an exit pairs with the innermost open enter of the
   same detail; an exit whose enter left the ring is skipped, and enters
   still open at the end are not spans yet. *)
let spans t =
  let rec unwind stack detail =
    match stack with
    | [] -> None
    | e :: rest -> if String.equal e.detail detail then Some (e, rest) else unwind rest detail
  in
  let step (stack, acc) e =
    match e.kind with
    | Span_enter -> (e :: stack, acc)
    | Span_exit -> (
      match unwind stack e.detail with
      | None -> (stack, acc)
      | Some (enter, rest) -> (rest, { enter; exit_at = e.at; depth = List.length rest } :: acc))
    | _ -> (stack, acc)
  in
  List.rev (snd (List.fold_left step ([], []) (tail t)))

(* One line per span in call-tree (pre-)order, indented by depth. *)
let spans_to_text spans =
  List.sort (fun a b -> compare a.enter.seq b.enter.seq) spans
  |> List.map (fun s ->
         let e = s.enter in
         Printf.sprintf "#%-6d dom %-2d %s%s  %d..%d (%d cyc)%s" e.seq e.domain
           (String.make (2 * s.depth) ' ')
           e.detail e.at s.exit_at (s.exit_at - e.at)
           (if e.rid = 0 then "" else Printf.sprintf "  rid=%d" e.rid))
  |> String.concat "\n"

(* ---------------- replay export / import ----------------------------- *)

(* One line per event, [detail] last and %S-quoted so it round-trips
   arbitrary strings. The header records completeness: replay equality
   is only meaningful against a complete history. *)

let export_header t =
  Printf.sprintf "pm-journal-v1 events=%d complete=%d" t.history.len
    (if complete t then 1 else 0)

(* Untraced events (rid 0) keep the original line format, so exports
   stay byte-identical when tracing is off; traced events carry a
   trailing [rid=N] that import strips first. The cpu field follows the
   same scheme: only nonzero ids are exported (as a [cpu=N] suffix after
   any rid), so uniprocessor recordings keep their exact bytes and
   N-CPU recordings round-trip. *)
let event_to_line e =
  Printf.sprintf "%d %d %d %s %d %S%s%s" e.seq e.at e.domain
    (kind_to_string e.kind) e.info e.detail
    (if e.rid = 0 then "" else Printf.sprintf " rid=%d" e.rid)
    (if e.cpu = 0 then "" else Printf.sprintf " cpu=%d" e.cpu)

let export t =
  let b = Buffer.create (64 * (t.history.len + 1)) in
  Buffer.add_string b (export_header t);
  buf_iter
    (fun e ->
      Buffer.add_char b '\n';
      Buffer.add_string b (event_to_line e))
    t.history;
  Buffer.contents b

(* The optional suffix, exactly as [event_to_line] emits it: [ rid=N]
   then [ cpu=N], each N positive and in canonical decimal. Anything
   else — stray words, a zero, an overflow, the wrong order, a missing
   value — is a named error rather than a silently dropped field. *)
let suffix_of rest =
  let field name s =
    let p = name ^ "=" in
    let lp = String.length p in
    if String.length s <= lp || not (String.equal (String.sub s 0 lp) p) then None
    else
      let v = String.sub s lp (String.length s - lp) in
      match int_of_string_opt v with
      | Some n when n > 0 && String.equal (string_of_int n) v -> Some n
      | _ -> None
  in
  let ids =
    match String.split_on_char ' ' rest with
    | [ "" ] -> Some (0, 0)
    | [ ""; a ] -> (
      match (field "rid" a, field "cpu" a) with
      | Some rid, _ -> Some (rid, 0)
      | None, Some cpu -> Some (0, cpu)
      | None, None -> None)
    | [ ""; a; b ] -> (
      match (field "rid" a, field "cpu" b) with
      | Some rid, Some cpu -> Some (rid, cpu)
      | _ -> None)
    | _ -> None
  in
  match ids with
  | Some ids -> Ok ids
  | None -> Error (Printf.sprintf "bad event suffix %S (expected [ rid=N][ cpu=N], N > 0)" rest)

let event_of_line line =
  match
    Scanf.sscanf line " %d %d %d %s %d %S%n" (fun seq at domain kstr info detail n ->
        (seq, at, domain, kstr, info, detail, n))
  with
  | exception (Scanf.Scan_failure m | Failure m | Invalid_argument m) -> Error m
  | exception End_of_file -> Error "truncated event line"
  | seq, at, domain, kstr, info, detail, n -> (
    match kind_of_string kstr with
    | None -> Error (Printf.sprintf "unknown event kind %S" kstr)
    | Some kind ->
      Result.map
        (fun (rid, cpu) -> { seq; at; domain; kind; info; detail; rid; cpu })
        (suffix_of (String.sub line n (String.length line - n))))

type import_result = { events : event list; complete : bool }

(* The header already records whether the export covers the whole run;
   [import_all] surfaces that so consumers (the query fold) can fail
   soft on truncated histories instead of misattributing. *)
let import_all s =
  match String.split_on_char '\n' s with
  | [] -> Error "empty journal export"
  | header :: lines ->
    if not (String.length header >= 14 && String.sub header 0 14 = "pm-journal-v1 ")
    then Error "not a pm-journal-v1 export"
    else begin
      let complete =
        try Scanf.sscanf header "pm-journal-v1 events=%d complete=%d"
              (fun _ c -> c = 1)
        with _ -> false
      in
      let rec go acc = function
        | [] -> Ok { events = List.rev acc; complete }
        | "" :: rest -> go acc rest
        | line :: rest ->
          (match event_of_line line with
          | Ok e -> go (e :: acc) rest
          | Error m ->
            Error (Printf.sprintf "bad event line %S: %s" line m))
      in
      go [] lines
    end

let import s = Result.map (fun r -> r.events) (import_all s)

let event_equal a b =
  a.seq = b.seq && a.at = b.at && a.domain = b.domain && a.kind = b.kind
  && a.info = b.info && a.rid = b.rid && a.cpu = b.cpu
  && String.equal a.detail b.detail

type divergence = { index : int; expected : event option; got : event option }

let first_divergence ~expected ~got =
  let rec go i es gs =
    match (es, gs) with
    | [], [] -> None
    | e :: es', g :: gs' ->
      if event_equal e g then go (i + 1) es' gs'
      else Some { index = i; expected = Some e; got = Some g }
    | e :: _, [] -> Some { index = i; expected = Some e; got = None }
    | [], g :: _ -> Some { index = i; expected = None; got = Some g }
  in
  go 0 expected got

let divergence_to_string d =
  let side name = function
    | Some e -> Printf.sprintf "%s %s" name (event_to_text e)
    | None -> Printf.sprintf "%s <end of journal>" name
  in
  Printf.sprintf "first divergence at event %d:\n  %s\n  %s" d.index
    (side "expected:" d.expected)
    (side "got:     " d.got)

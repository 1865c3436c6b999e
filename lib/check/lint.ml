(* Whole-system composition linter: a pass over the live object graph
   that checks the properties the object model promises but never
   enforces at assembly time. Each rule reads existing bookkeeping
   (namespace bindings, the directory's interposition log, event
   call-back tables, channel headers and wait queues) with plain
   OCaml reads — the pass charges no simulated cycles, like the flight
   recorder it reports into. *)

module Machine = Pm_machine.Machine
module Subsume = Pm_check.Subsume
module Namespace = Pm_names.Namespace
module Path = Pm_names.Path
module Instance = Pm_obj.Instance
module Directory = Pm_nucleus.Directory
module Events = Pm_nucleus.Events
module Domain = Pm_nucleus.Domain
module Chan = Pm_chan.Chan
module View = Pm_names.View
module Journal = Pm_journal.Journal
module Storereg = Pm_store.Storereg

type severity = Error | Warning

type finding = {
  rule : string;  (** e.g. "superset", "spsc", "wait-cycle" *)
  subject : string;  (** the path / channel / handler concerned *)
  detail : string;
  severity : severity;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let finding_to_string f =
  Printf.sprintf "%-7s %-12s %s: %s" (severity_to_string f.severity) f.rule
    f.subject f.detail

(* ------------------------------------------------------------------ *)
(* Rule: interposer supersets                                          *)
(* ------------------------------------------------------------------ *)

(* Every recorded Directory.replace must have installed a superset of
   what it displaced — re-checked against the live instances, so an
   interface removed *after* interposition is caught too. *)
let check_supersets directory =
  List.filter_map
    (fun (path, old_h, new_h) ->
      let subject = Path.to_string path in
      match (Directory.resolve_handle directory old_h, Directory.resolve_handle directory new_h) with
      | None, _ ->
        (* the displaced object is gone entirely; nothing to compare *)
        None
      | _, None ->
        Some
          {
            rule = "superset";
            subject;
            detail = Printf.sprintf "replacement handle %d is dead" new_h;
            severity = Error;
          }
      | Some wrapped, Some agent -> (
        match Subsume.check_instances ~wrapped ~agent with
        | Ok () -> None
        | Error detail -> Some { rule = "superset"; subject; detail; severity = Error }))
    (Directory.replacements directory)

(* ------------------------------------------------------------------ *)
(* Rule: dangling namespace bindings                                   *)
(* ------------------------------------------------------------------ *)

let check_bindings directory =
  let ns = Directory.namespace directory in
  let findings = ref [] in
  Namespace.iter ns (fun path handle ->
      let problem =
        match Directory.resolve_handle directory handle with
        | None -> Some (Printf.sprintf "bound to dead handle %d" handle)
        | Some inst ->
          if inst.Instance.revoked then
            Some (Printf.sprintf "bound to revoked instance %d" handle)
          else None
      in
      match problem with
      | None -> ()
      | Some detail ->
        findings :=
          { rule = "dangling"; subject = Path.to_string path; detail; severity = Error }
          :: !findings);
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Rule: event handlers with dead context                              *)
(* ------------------------------------------------------------------ *)

let check_handlers events =
  List.filter_map
    (fun (event, (dom : Domain.t), _id) ->
      if dom.Domain.alive then None
      else
        let subject =
          match event with
          | Events.Trap n -> Printf.sprintf "trap %d" n
          | Events.Irq n -> Printf.sprintf "irq %d" n
        in
        Some
          {
            rule = "dead-handler";
            subject;
            detail =
              Printf.sprintf "call-back registered for destroyed domain %d (%s)"
                dom.Domain.id dom.Domain.name;
            severity = Error;
          })
    (Events.registrations events)

(* ------------------------------------------------------------------ *)
(* Rule: channel SPSC ownership                                        *)
(* ------------------------------------------------------------------ *)

(* A channel ring has exactly one free-running tail: two senders from
   different MMU contexts silently corrupt each other's slots. The
   receive side is legitimately plural (inline drains plus pop-up
   consumers run in different contexts), so only senders are policed.

   An MPSC group (Pm_chan.Mpsc) is the sanctioned multi-producer shape:
   many producers, but each on its own tagged sub-ring. For a tagged
   ring the rule tightens to "exactly the owning context": distinct
   producers on distinct sub-rings pass, while a second context on
   someone else's sub-ring is flagged with the group named. *)
let check_spsc ~machine =
  let findings = ref [] in
  Chan.iter_all ~machine (fun c ->
      match Chan.group c with
      | Some (gname, owner_ctx) ->
        (match
           List.filter (fun ctx -> ctx <> owner_ctx) (Chan.senders_seen c)
         with
        | [] -> ()
        | intruders ->
          findings :=
            {
              rule = "spsc";
              subject = Chan.name c;
              detail =
                Printf.sprintf
                  "sub-ring of mpsc group %s is owned by context %d but saw \
                   sender(s) %s"
                  gname owner_ctx
                  (String.concat ", " (List.map string_of_int intruders));
              severity = Error;
            }
            :: !findings)
      | None ->
        (match Chan.senders_seen c with
        | [] | [ _ ] -> ()
        | ctxs ->
          findings :=
            {
              rule = "spsc";
              subject = Chan.name c;
              detail =
                Printf.sprintf "%d distinct sending contexts: %s" (List.length ctxs)
                  (String.concat ", " (List.map string_of_int ctxs));
              severity = Error;
            }
            :: !findings));
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Rule: wait-for cycles across channel endpoints                      *)
(* ------------------------------------------------------------------ *)

(* A domain parked in a blocking recv waits for the producer domain to
   enqueue; one parked in a blocking send waits for the consumer domain
   to drain. Those edges form the wait-for graph; a cycle means no
   domain on it can ever run again — deadlock. *)
let check_wait_cycles ~machine =
  let edges = ref [] in
  Chan.iter_all ~machine (fun c ->
      let producer = (Chan.producer c).Domain.id in
      let consumer =
        match Chan.consumer c with Some d -> Some d.Domain.id | None -> None
      in
      List.iter
        (fun waiter ->
          if waiter <> producer then edges := (waiter, producer, Chan.name c) :: !edges)
        (Chan.blocked_receivers c);
      match consumer with
      | None -> ()
      | Some consumer ->
        List.iter
          (fun waiter ->
            if waiter <> consumer then edges := (waiter, consumer, Chan.name c) :: !edges)
          (Chan.blocked_senders c));
  let edges = List.rev !edges in
  let successors d = List.filter (fun (s, _, _) -> s = d) edges in
  (* DFS from every node; report each cycle once by its smallest member *)
  let cycles = ref [] in
  let index_of x l =
    let rec go i = function
      | [] -> None
      | y :: _ when y = x -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 l
  in
  let rec dfs trail d =
    match index_of d trail with
    | Some i ->
      let cycle = List.filteri (fun j _ -> j <= i) trail in
      let key = List.sort compare cycle in
      if not (List.mem key !cycles) then cycles := key :: !cycles
    | None -> List.iter (fun (_, t, _) -> dfs (d :: trail) t) (successors d)
  in
  List.iter (fun (s, _, _) -> dfs [] s) edges;
  List.rev_map
    (fun cycle ->
      {
        rule = "wait-cycle";
        subject =
          String.concat " -> " (List.map (fun d -> Printf.sprintf "dom %d" d) cycle);
        detail =
          Printf.sprintf "wait-for cycle across %d channel edge(s): every domain waits on the next"
            (List.length edges);
        severity = Error;
      })
    !cycles
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Rule: page-sharing hygiene (history-derived)                        *)
(* ------------------------------------------------------------------ *)

(* Replays the journal's structural archive: every Page_share opens a
   (frame, owner, holder) obligation, the matching Page_unshare closes
   it, and a Domain_down with obligations still open on either side is
   the violation — a shared frame outlived one of the domains party to
   it. Works on any structural event stream, so a replayed recording
   (imported events, no live journal) lints the same way. *)
let check_page_hygiene events =
  let open_shares = ref [] in (* (frame, owner, holder) *)
  let findings = ref [] in
  List.iter
    (fun e ->
      match e.Journal.kind with
      | Journal.Page_share ->
        let owner =
          try Scanf.sscanf e.Journal.detail "frame %d from dom %d" (fun _ d -> d)
          with Scanf.Scan_failure _ | End_of_file | Failure _ -> -1
        in
        open_shares := (e.Journal.info, owner, e.Journal.domain) :: !open_shares
      | Journal.Page_unshare ->
        let closed = ref false in
        open_shares :=
          List.filter
            (fun (frame, _, holder) ->
              if (not !closed) && frame = e.Journal.info
                 && holder = e.Journal.domain
              then begin
                closed := true;
                false
              end
              else true)
            !open_shares
      | Journal.Domain_down ->
        let dead = e.Journal.domain in
        let guilty, rest =
          List.partition
            (fun (_, owner, holder) -> owner = dead || holder = dead)
            !open_shares
        in
        open_shares := rest;
        List.iter
          (fun (frame, owner, holder) ->
            findings :=
              {
                rule = "page-hygiene";
                subject = Printf.sprintf "frame %d" frame;
                detail =
                  Printf.sprintf
                    "shared from dom %d into dom %d, still mapped when dom %d \
                     went down"
                    owner holder dead;
                severity = Error;
              }
              :: !findings)
          guilty
      | _ -> ())
    events;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Rule: delegate-chain shadowing                                      *)
(* ------------------------------------------------------------------ *)

(* An interposition swaps what a *name* resolves to — but a domain whose
   view overrides that same name to a different handle never sees the
   agent: its calls silently bypass the monitor/filter the interposition
   installed. Flagged as a warning: the override may be intentional, but
   it shadows the live interposition. *)
let check_shadowing ~directory ~domains =
  let ns = Directory.namespace directory in
  let live_replacements =
    List.filter
      (fun (path, _old_h, new_h) ->
        match Namespace.lookup ns path with
        | Ok h -> h = new_h
        | Error _ -> false)
      (Directory.replacements directory)
  in
  List.concat_map
    (fun (path, _old_h, new_h) ->
      List.filter_map
        (fun (dom : Domain.t) ->
          match
            List.find_opt
              (fun (p, h) -> Path.equal p path && h <> new_h)
              (View.overrides dom.Domain.view)
          with
          | Some (_, h) ->
            Some
              {
                rule = "shadowing";
                subject = Path.to_string path;
                detail =
                  Printf.sprintf
                    "domain %d (%s) overrides the name to handle %d, bypassing \
                     interposed handle %d"
                    dom.Domain.id dom.Domain.name h new_h;
                severity = Warning;
              }
          | None -> None)
        (domains ()))
    live_replacements

(* ------------------------------------------------------------------ *)
(* Rules: storage-stack composition                                    *)
(* ------------------------------------------------------------------ *)

(* The storage registry records, for each live component, the namespace
   path of the layer it consumes; matching those [lower] paths against
   the [/store] bindings reconstructs the stack without charging a
   simulated cycle. Two properties must hold of it. *)

let store_entries ~machine =
  let es = ref [] in
  Storereg.iter_all ~machine (fun e -> es := e :: !es);
  List.rev !es

(* "store-order": a write-back cache must sit above (never below) its
   log or partition. A cache stacked directly above an append-only log
   holds writes back and evicts them in LRU order, breaking the strict
   append sequence the log's superblock accounting depends on; a
   partition windowing a cache is the same inversion seen from above —
   the cache's dirty state hides behind an address translation it never
   sees flushed. Both are errors. An unresolvable [lower] path is not
   this rule's business (store-dangling owns liveness). *)
let check_store_order ~machine =
  let entries = store_entries ~machine in
  let resolve path =
    List.find_opt
      (fun (e : Storereg.entry) ->
        (not e.Storereg.detached)
        &&
        match e.Storereg.bound with
        | Some b -> String.equal b path
        | None -> false)
      entries
  in
  List.filter_map
    (fun (e : Storereg.entry) ->
      if e.Storereg.detached then None
      else
        let lower =
          match e.Storereg.lower with
          | None -> None
          | Some p -> resolve p
        in
        match (e.Storereg.kind, lower) with
        | Storereg.Cache, Some l when l.Storereg.kind = Storereg.Log ->
          Some
            {
              rule = "store-order";
              subject = e.Storereg.name;
              detail =
                Printf.sprintf
                  "write-back cache stacked above append-only log %s: eviction \
                   replays writes in LRU order, not append order — the cache \
                   belongs below the log"
                  l.Storereg.name;
              severity = Error;
            }
        | Storereg.Partition, Some l when l.Storereg.kind = Storereg.Cache ->
          Some
            {
              rule = "store-order";
              subject = e.Storereg.name;
              detail =
                Printf.sprintf
                  "partition windows write-back cache %s: the cache sits below \
                   its partition, hiding dirty blocks behind the address \
                   translation — the cache belongs above the partition"
                  l.Storereg.name;
              severity = Error;
            }
        | _ -> None)
    entries

(* "store-dangling": detach is flush, unregister, revoke, unbind — in
   that order. An entry still bound under /store after it detached, or
   whose bound instance has been revoked out from under the binding, is
   an endpoint the next bind will hand out and the first call will
   fault on. *)
let check_store_dangling ~machine =
  let findings = ref [] in
  Storereg.iter_all ~machine (fun e ->
      match e.Storereg.bound with
      | None -> ()
      | Some path ->
        let problem =
          if e.Storereg.detached then
            Some
              (Printf.sprintf "%s %s detached but its endpoint is still bound"
                 (Storereg.kind_to_string e.Storereg.kind)
                 e.Storereg.name)
          else if e.Storereg.instance.Instance.revoked then
            Some
              (Printf.sprintf
                 "endpoint bound to revoked %s %s (revoked without detach)"
                 (Storereg.kind_to_string e.Storereg.kind)
                 e.Storereg.name)
          else None
        in
        (match problem with
        | None -> ()
        | Some detail ->
          findings :=
            { rule = "store-dangling"; subject = path; detail; severity = Error }
            :: !findings));
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* The whole-system pass                                               *)
(* ------------------------------------------------------------------ *)

type report = { findings : finding list; rules_run : int }

let rules =
  [ "superset"; "dangling"; "dead-handler"; "spsc"; "wait-cycle"; "store-order";
    "store-dangling"; "page-hygiene"; "shadowing" ]

let run ~machine ~directory ~events ?journal ?domains () =
  let history_findings =
    match journal with
    | Some j -> check_page_hygiene (Journal.structural j)
    | None -> []
  in
  let shadow_findings =
    match domains with
    | Some ds -> check_shadowing ~directory ~domains:ds
    | None -> []
  in
  let findings =
    check_supersets directory @ check_bindings directory @ check_handlers events
    @ check_spsc ~machine @ check_wait_cycles ~machine
    @ check_store_order ~machine
    @ check_store_dangling ~machine
    @ history_findings @ shadow_findings
  in
  let rules_run =
    7 + (if journal = None then 0 else 1) + if domains = None then 0 else 1
  in
  { findings; rules_run }

(* History-only pass: the rules derivable from an event stream alone, so
   a *replayed* recording can be linted without the live object graph. *)
let history events = check_page_hygiene events

let errors report =
  List.filter (fun f -> f.severity = Error) report.findings

let report_to_string report =
  match report.findings with
  | [] -> Printf.sprintf "clean: %d rules, no findings" report.rules_run
  | fs ->
    Printf.sprintf "%d finding(s) from %d rules:\n%s" (List.length fs)
      report.rules_run
      (String.concat "\n" (List.map finding_to_string fs))

(* Machine-readable report: one JSON object per line of CI tooling. Rule
   names are fixed, but subjects and details carry arbitrary paths and
   quotes. *)
let finding_to_json f =
  let esc = Pm_journal.Json.escape in
  Printf.sprintf
    {|{"rule":"%s","severity":"%s","subject":"%s","detail":"%s"}|}
    (esc f.rule)
    (severity_to_string f.severity)
    (esc f.subject) (esc f.detail)

let report_to_json report =
  Printf.sprintf {|{"rules_run":%d,"errors":%d,"findings":[%s]}|}
    report.rules_run
    (List.length (errors report))
    (String.concat "," (List.map finding_to_json report.findings))

(* Explain a rule by name — the /nucleus/check "explain" method. *)
let explain = function
  | "superset" ->
    "every Directory.replace must install an object whose interfaces subsume \
     the displaced object's, method for method (the paper's interposition rule)"
  | "dangling" -> "every namespace binding must resolve to a live, unrevoked instance"
  | "dead-handler" ->
    "every registered event call-back must belong to a live domain"
  | "spsc" ->
    "a channel ring has one producer: enqueues from more than one MMU context \
     corrupt the single free-running tail; a sub-ring of an mpsc group is \
     instead checked against its owning context, so distinct producers on \
     distinct sub-rings are the sanctioned multi-producer shape"
  | "wait-cycle" ->
    "domains blocked on channel ends must not form a cycle of mutual waiting — \
     that is a deadlock no doorbell can break"
  | "store-order" ->
    "a write-back cache must sit above (never below) its log or partition: a \
     cache stacked above an append-only log replays evictions in LRU order, \
     and a partition windowing a cache hides dirty blocks behind the address \
     translation"
  | "store-dangling" ->
    "no /store endpoint may be left dangling after detach: an entry still \
     bound after it detached, or bound to a revoked component, faults the \
     next client that binds it"
  | "page-hygiene" ->
    "every page shared across domains must be unshared before either party \
     goes down — derived by replaying the journal's structural history, so it \
     works on recorded runs too"
  | "shadowing" ->
    "a domain whose view overrides an interposed name to a different handle \
     silently bypasses the interposition agent"
  | r -> Printf.sprintf "unknown rule %S" r

(* Time-travel queries over the journal: fold a [Full]-mode event
   stream into per-request causal span trees (who spent which cycles
   where), and fold the structural archive into state-at-cycle answers
   (what held frame F at cycle N, who was bound at path P, which domain
   owned component C).

   Everything here is a pure fold over an exported event list — the
   journal is the system's history as a first-class object, and these
   are queries against it, not instrumentation. Malformed histories
   (truncated exports, unbalanced spans) produce named [Error]s, never
   exceptions: the fold is a diagnostic tool and must degrade
   gracefully on exactly the damaged inputs it exists to explain. *)

module Journal = Pm_journal.Journal

type span = {
  layer : string;
  enter_at : int;
  exit_at : int;
  cpu : int; (* CPU the Span_enter was issued from *)
  children : span list;
}

type media = { block : int; issue_at : int; complete_at : int }

type request = {
  rid : int;
  label : string; (* Req_begin detail, e.g. "put key-0" *)
  begin_at : int;
  end_at : int;
  cpu : int; (* CPU the Req_begin was issued from *)
  spans : span list; (* top-level spans, in request order *)
  notes : (int * string * int) list; (* at, detail, info *)
  media : media list;
}

let duration r = r.end_at - r.begin_at
let span_duration s = s.exit_at - s.enter_at

(* ------------------------------------------------------------------ *)
(* The causal fold                                                      *)
(* ------------------------------------------------------------------ *)

type pending_span = {
  p_detail : string;
  p_enter : int;
  p_cpu : int;
  mutable p_kids_rev : span list;
}

type pending_req = {
  p_rid : int;
  p_label : string;
  p_begin : int;
  p_cpu : int;
  mutable p_stack : pending_span list; (* innermost first *)
  mutable p_top_rev : span list;
  mutable p_notes_rev : (int * string * int) list;
  mutable p_media_rev : media list;
  mutable p_issues : (int * int) list; (* block, issue_at; FIFO *)
}

(* A span's detail starts with its layer: store/net spans are the bare
   layer ("kv"), observability spans add what ran ("proxy echo.echo
   proxy:test.echo") — both attribute to the first word. *)
let layer_of detail =
  match String.index_opt detail ' ' with
  | Some i -> String.sub detail 0 i
  | None -> detail

let fold ~complete events =
  if not complete then
    Error "query: incomplete history (journal not Full from boot, or compacted)"
  else begin
    let open_reqs : (int, pending_req) Hashtbl.t = Hashtbl.create 16 in
    let done_rev = ref [] in
    let err = ref None in
    let fail m = if !err = None then err := Some m in
    let close_span p (e : Journal.event) =
      match p.p_stack with
      | [] ->
        fail
          (Printf.sprintf "query: unbalanced span (exit %S with no enter, rid %d)"
             e.Journal.detail p.p_rid)
      | ps :: rest ->
        if not (String.equal ps.p_detail e.Journal.detail) then
          fail
            (Printf.sprintf
               "query: unbalanced span (exit %S inside %S, rid %d)"
               e.Journal.detail ps.p_detail p.p_rid)
        else begin
          let s =
            {
              layer = layer_of ps.p_detail;
              enter_at = ps.p_enter;
              exit_at = e.Journal.at;
              cpu = ps.p_cpu;
              children = List.rev ps.p_kids_rev;
            }
          in
          p.p_stack <- rest;
          match rest with
          | parent :: _ -> parent.p_kids_rev <- s :: parent.p_kids_rev
          | [] -> p.p_top_rev <- s :: p.p_top_rev
        end
    in
    List.iter
      (fun (e : Journal.event) ->
        if !err = None && e.Journal.rid > 0 then begin
          let rid = e.Journal.rid in
          match e.Journal.kind with
          | Journal.Req_begin ->
            if Hashtbl.mem open_reqs rid then
              fail (Printf.sprintf "query: duplicate req-begin for rid %d" rid)
            else
              Hashtbl.replace open_reqs rid
                {
                  p_rid = rid;
                  p_label = e.Journal.detail;
                  p_begin = e.Journal.at;
                  p_cpu = e.Journal.cpu;
                  p_stack = [];
                  p_top_rev = [];
                  p_notes_rev = [];
                  p_media_rev = [];
                  p_issues = [];
                }
          | Journal.Req_end -> (
            match Hashtbl.find_opt open_reqs rid with
            | None -> fail (Printf.sprintf "query: req-end without begin, rid %d" rid)
            | Some p ->
              if p.p_stack <> [] then
                fail
                  (Printf.sprintf "query: request %d ended inside span %S" rid
                     (List.hd p.p_stack).p_detail)
              else begin
                Hashtbl.remove open_reqs rid;
                done_rev :=
                  {
                    rid;
                    label = p.p_label;
                    begin_at = p.p_begin;
                    end_at = e.Journal.at;
                    cpu = p.p_cpu;
                    spans = List.rev p.p_top_rev;
                    notes = List.rev p.p_notes_rev;
                    media = List.rev p.p_media_rev;
                  }
                  :: !done_rev
              end)
          | Journal.Span_enter -> (
            match Hashtbl.find_opt open_reqs rid with
            | None -> () (* traced work outside any request window *)
            | Some p ->
              p.p_stack <-
                {
                  p_detail = e.Journal.detail;
                  p_enter = e.Journal.at;
                  p_cpu = e.Journal.cpu;
                  p_kids_rev = [];
                }
                :: p.p_stack)
          | Journal.Span_exit -> (
            match Hashtbl.find_opt open_reqs rid with
            | None -> ()
            | Some p -> close_span p e)
          | Journal.Trace_note -> (
            match Hashtbl.find_opt open_reqs rid with
            | None -> ()
            | Some p ->
              p.p_notes_rev <-
                (e.Journal.at, e.Journal.detail, e.Journal.info) :: p.p_notes_rev)
          | Journal.Blk_issue -> (
            match Hashtbl.find_opt open_reqs rid with
            | None -> ()
            | Some p -> p.p_issues <- p.p_issues @ [ (e.Journal.info, e.Journal.at) ])
          | Journal.Blk_complete -> (
            match Hashtbl.find_opt open_reqs rid with
            | None -> ()
            | Some p -> (
              (* media completion is in-order: match the oldest issue
                 of the same block *)
              match
                List.partition (fun (b, _) -> b = e.Journal.info) p.p_issues
              with
              | (block, issue_at) :: later_same, others ->
                p.p_issues <-
                  others @ later_same |> List.sort (fun (_, a) (_, b) -> compare a b);
                p.p_media_rev <-
                  { block; issue_at; complete_at = e.Journal.at } :: p.p_media_rev
              | [], _ -> ()))
          | _ -> ()
        end)
      events;
    match !err with
    | Some m -> Error m
    | None -> Ok (List.rev !done_rev)
  end

(* ------------------------------------------------------------------ *)
(* Attribution: exclusive cycles per layer, telescoping to the total.   *)
(* ------------------------------------------------------------------ *)

(* Canonical rendering order for the KV path; unknown layers follow
   alphabetically. *)
let layer_order = [ "net"; "kv"; "log"; "cache"; "partition"; "driver"; "media" ]

let layer_rank l =
  let rec idx i = function
    | [] -> List.length layer_order
    | x :: tl -> if String.equal x l then i else idx (i + 1) tl
  in
  idx 0 layer_order

let compare_layers a b =
  match compare (layer_rank a) (layer_rank b) with
  | 0 -> compare a b
  | c -> c

(* Clip [m] to span [s]; media waits happen inside the driver span, so
   this is normally the whole interval. *)
let media_overlap s m =
  max 0 (min m.complete_at s.exit_at - max m.issue_at s.enter_at)

(* Deepest span containing the media issue — the layer that was
   actually on the stack while the device worked. A span holds the
   cycles [enter_at, exit_at): a wait issued in the cycle a span exits
   is its parent's, so it is not lost to a span it cannot overlap. *)
let rec deepest_containing spans m =
  let holds s = s.enter_at <= m.issue_at && m.issue_at < s.exit_at in
  match List.find_opt holds spans with
  | None -> None
  | Some s -> (
    match deepest_containing s.children m with
    | Some deeper -> Some deeper
    | None -> Some s)

let media_in_span r s =
  List.fold_left
    (fun acc m ->
      match deepest_containing r.spans m with
      | Some owner when owner == s -> acc + media_overlap s m
      | _ -> acc)
    0 r.media

(* Per-layer exclusive cycles: each span's inclusive time minus its
   children, minus any media wait charged to it; "net" is everything
   outside the top-level spans; the sum telescopes to [duration]. *)
let attribution r =
  let tally = Hashtbl.create 8 in
  let add layer n =
    Hashtbl.replace tally layer (n + Option.value ~default:0 (Hashtbl.find_opt tally layer))
  in
  let rec walk s =
    let kids = List.fold_left (fun acc c -> acc + span_duration c) 0 s.children in
    add s.layer (span_duration s - kids - media_in_span r s);
    List.iter walk s.children
  in
  List.iter walk r.spans;
  let top = List.fold_left (fun acc s -> acc + span_duration s) 0 r.spans in
  let media_total =
    List.fold_left
      (fun acc m ->
        match deepest_containing r.spans m with
        | Some s -> acc + media_overlap s m
        | None -> acc + max 0 (min m.complete_at r.end_at - max m.issue_at r.begin_at))
      0 r.media
  in
  let orphan_media =
    List.fold_left
      (fun acc m ->
        match deepest_containing r.spans m with
        | Some _ -> acc
        | None -> acc + max 0 (min m.complete_at r.end_at - max m.issue_at r.begin_at))
      0 r.media
  in
  add "net" (duration r - top - orphan_media);
  if media_total > 0 then add "media" media_total;
  Hashtbl.fold (fun l n acc -> (l, n) :: acc) tally []
  |> List.sort (fun (a, _) (b, _) -> compare_layers a b)

(* ------------------------------------------------------------------ *)
(* Critical path: descend through the dominant consumer at each level.  *)
(* ------------------------------------------------------------------ *)

let critical_path r =
  let pick spans =
    List.fold_left
      (fun best s ->
        match best with
        | Some b when span_duration b >= span_duration s -> best
        | _ -> Some s)
      None spans
  in
  let rec descend acc spans =
    match pick spans with
    | None -> List.rev acc
    | Some s ->
      let m = media_in_span r s in
      let kids = List.fold_left (fun a c -> a + span_duration c) 0 s.children in
      (* the span's own dominant consumer: media wait, a child layer,
         or its own exclusive work (stop) *)
      if m > kids && m > span_duration s - kids - m then
        List.rev (("media") :: s.layer :: acc)
      else if s.children = [] then List.rev (s.layer :: acc)
      else descend (s.layer :: acc) s.children
  in
  let top = List.fold_left (fun acc s -> acc + span_duration s) 0 r.spans in
  let net = duration r - top in
  match pick r.spans with
  | None -> [ "net" ]
  | Some s when net > span_duration s -> [ "net" ]
  | Some _ -> descend [] r.spans

let slowest k reqs =
  List.stable_sort
    (fun a b ->
      match compare (duration b) (duration a) with
      | 0 -> compare a.rid b.rid
      | c -> c)
    reqs
  |> List.filteri (fun i _ -> i < k)

let layer_totals reqs =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (l, n) ->
          Hashtbl.replace tally l
            (n + Option.value ~default:0 (Hashtbl.find_opt tally l)))
        (attribution r))
    reqs;
  Hashtbl.fold (fun l n acc -> (l, n) :: acc) tally []
  |> List.sort (fun (a, _) (b, _) -> compare_layers a b)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

(* CPU 0 renders as nothing so uniprocessor output is unchanged. *)
let cpu_tag cpu = if cpu = 0 then "" else Printf.sprintf "  cpu %d" cpu

let request_line r =
  Printf.sprintf "rid %-3d %-14s [%d..%d] %d cyc  path %s%s" r.rid
    (if String.equal r.label "" then "?" else r.label)
    r.begin_at r.end_at (duration r)
    (String.concat ">" (critical_path r))
    (cpu_tag r.cpu)

let request_to_text r =
  let b = Buffer.create 256 in
  Buffer.add_string b (request_line r);
  let rec walk indent s =
    Buffer.add_string b
      (Printf.sprintf "\n%s%-10s %6d cyc  [%d..%d]%s" indent s.layer
         (span_duration s) s.enter_at s.exit_at (cpu_tag s.cpu));
    List.iter (walk (indent ^ "  ")) s.children
  in
  List.iter (walk "  ") r.spans;
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "\n  media      %6d cyc  [%d..%d] block %d"
           (m.complete_at - m.issue_at) m.issue_at m.complete_at m.block))
    r.media;
  List.iter
    (fun (at, detail, info) ->
      Buffer.add_string b (Printf.sprintf "\n  note @%d %s %d" at detail info))
    r.notes;
  Buffer.contents b

let attribution_to_text r =
  String.concat ", "
    (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) (attribution r))

let layer_totals_to_text reqs =
  String.concat "\n"
    (List.map
       (fun (l, n) -> Printf.sprintf "%-10s %8d cyc" l n)
       (layer_totals reqs))

(* ------------------------------------------------------------------ *)
(* State-at-cycle queries over the structural archive                   *)
(* ------------------------------------------------------------------ *)

let upto at events =
  List.filter (fun (e : Journal.event) -> e.Journal.at <= at) events

(* Who held frame F at cycle N: owners come from Page_share (info =
   frame, domain = the domain mapped into) and leave on Page_unshare. *)
let frame_holders events ~frame ~at =
  List.fold_left
    (fun holders (e : Journal.event) ->
      if e.Journal.info <> frame then holders
      else
        match e.Journal.kind with
        | Journal.Page_share ->
          if List.mem e.Journal.domain holders then holders
          else e.Journal.domain :: holders
        | Journal.Page_unshare ->
          List.filter (fun d -> d <> e.Journal.domain) holders
        | _ -> holders)
    [] (upto at events)
  |> List.sort compare

(* Which instance handle was bound at path P at cycle N: Bind/Unbind
   set and clear it; Interpose/Uninterpose (detail "path: old -> new")
   swap it. *)
let bound_at events ~path ~at =
  let swap_prefix = path ^ ": " in
  List.fold_left
    (fun bound (e : Journal.event) ->
      match e.Journal.kind with
      | Journal.Bind when String.equal e.Journal.detail path -> Some e.Journal.info
      | Journal.Unbind when String.equal e.Journal.detail path -> None
      | Journal.Interpose | Journal.Uninterpose ->
        let d = e.Journal.detail in
        if
          String.length d >= String.length swap_prefix
          && String.equal (String.sub d 0 (String.length swap_prefix)) swap_prefix
        then Some e.Journal.info
        else bound
      | _ -> bound)
    None (upto at events)

(* Which domain owned component C at cycle N: Install records
   "name @ path" with the instance handle; Detach removes by handle. *)
let owner_of events ~name ~at =
  let prefix = name ^ " @ " in
  let installs =
    List.fold_left
      (fun live (e : Journal.event) ->
        match e.Journal.kind with
        | Journal.Install ->
          let d = e.Journal.detail in
          if
            String.length d >= String.length prefix
            && String.equal (String.sub d 0 (String.length prefix)) prefix
          then (e.Journal.info, e.Journal.domain) :: live
          else live
        | Journal.Detach ->
          List.filter (fun (h, _) -> h <> e.Journal.info) live
        | _ -> live)
      [] (upto at events)
  in
  match installs with [] -> None | (_, domain) :: _ -> Some domain

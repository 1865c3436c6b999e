(* The query service: causal tracing and time-travel queries exported
   as an ordinary boot-time nucleus object, /nucleus/query.

   A thin object wrapper over {!Pm_query.Query} applied to the live
   journal: per-request span trees, top-K slowest, per-layer cycle
   attribution, plus state-at-cycle answers folded from the structural
   archive. Like every nucleus service it can be bound cross-domain
   and interposed on. *)

module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Obs = Pm_obs.Obs
module Journal = Pm_journal.Journal
module Query = Pm_query.Query

let journal machine = Obs.journal (Clock.obs (Machine.clock machine))

let fault msg = Error (Oerror.Fault msg)

(* The causal fold needs the whole run: a Tail-mode or compacted
   journal would misattribute, so refuse it by name instead. *)
let with_requests machine k =
  let j = journal machine in
  match Query.fold ~complete:(Journal.complete j) (Journal.history j) with
  | Ok reqs -> k reqs
  | Error m -> fault m

let service_object machine registry kdom =
  let lines reqs =
    Ok (Value.Str (String.concat "\n" (List.map Query.request_line reqs)))
  in
  (* state-at-cycle queries fold the structural archive, which is
     always complete — they work in any journal mode *)
  let structural () = Journal.structural (journal machine) in
  let iface =
    Iface.make ~name:"query"
      [
        Iface.fn0 ~name:"snapshot" ~ret:Vtype.Tstr (fun _ -> with_requests machine lines);
        Iface.fn1 ~name:"request" Iface.Int ~ret:Vtype.Tstr (fun _ rid ->
            with_requests machine (fun reqs ->
                match List.find_opt (fun r -> r.Query.rid = rid) reqs with
                | Some r -> Ok (Value.Str (Query.request_to_text r))
                | None -> fault (Printf.sprintf "query: no request %d" rid)));
        Iface.fn1 ~name:"slowest" Iface.Int ~ret:Vtype.Tstr (fun _ k ->
            with_requests machine (fun reqs -> lines (Query.slowest k reqs)));
        Iface.fn0 ~name:"layers" ~ret:Vtype.Tstr (fun _ ->
            with_requests machine (fun reqs ->
                Ok (Value.Str (Query.layer_totals_to_text reqs))));
        Iface.fn2 ~name:"frame_holders" Iface.Int Iface.Int ~ret:(Vtype.Tlist Vtype.Tint)
          (fun _ frame at ->
            let holders = Query.frame_holders (structural ()) ~frame ~at in
            Ok (Value.List (List.map (fun d -> Value.Int d) holders)));
        Iface.fn2 ~name:"bound_at" Iface.Str Iface.Int ~ret:Vtype.Tint (fun _ path at ->
            match Query.bound_at (structural ()) ~path ~at with
            | Some h -> Ok (Value.Int h)
            | None -> fault (Printf.sprintf "query: nothing bound at %s" path));
        Iface.fn2 ~name:"owner_of" Iface.Str Iface.Int ~ret:Vtype.Tint (fun _ name at ->
            match Query.owner_of (structural ()) ~name ~at with
            | Some d -> Ok (Value.Int d)
            | None -> fault (Printf.sprintf "query: no component %s" name));
      ]
  in
  Instance.create registry ~class_name:"nucleus.query" ~domain:kdom.Domain.id
    [ iface ]

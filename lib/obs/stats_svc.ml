(* The /stats namespace: per-domain accounting made visible as ordinary
   objects. One service object at /stats/kernel exports kernel-wide
   snapshot/diff/flight, and each protection domain gets a directory
   object at /stats/<name> — both reachable cross-domain through the
   normal proxy path and interposable like any agent, because they are
   nothing but named instances. *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Directory = Pm_nucleus.Directory
module Vmem = Pm_nucleus.Vmem
module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Path = Pm_names.Path
module Obs = Pm_obs.Obs
module Metrics = Pm_obs.Metrics
module Journal = Pm_journal.Journal
module Json = Pm_journal.Json

type t = {
  api : Api.t;
  domains : unit -> Domain.t list;
  published : (int, string) Hashtbl.t; (* domain id -> /stats path *)
  mutable baseline : (int * (string * int) list) list; (* id, row at the mark *)
  mutable baseline_at : int;
  mutable baseline_resets : int; (* [Obs.resets] at the mark *)
  mutable kernel_obj : Instance.t option;
}

let clock t = Machine.clock t.api.Api.machine
let obs t = Clock.obs (clock t)

let live_domains t = List.filter (fun d -> d.Domain.alive) (t.domains ())

(* a domain's accounting row: the metrics view, then the pages it holds
   read from Vmem at export time *)
let row t (d : Domain.t) =
  Obs.account_fields (Obs.account (obs t) ~domain:d.Domain.id)
  @ [ ("pages", Vmem.pages_of t.api.Api.vmem d) ]

let capture t = List.map (fun d -> (d.Domain.id, d.Domain.name, row t d)) (live_domains t)

let mark t =
  t.baseline <- List.map (fun (id, _, r) -> (id, r)) (capture t);
  t.baseline_at <- Clock.now (clock t);
  t.baseline_resets <- Obs.resets (obs t)

(* ---------------- exporters (reusing Metrics for the keyed data) ------ *)

let dom_line id name row =
  Printf.sprintf "dom %-2d %-12s %s" id name
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) row))

let json_obj row =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (Json.escape k) v) row)
  ^ "}"

let dom_json id name row =
  Printf.sprintf "{\"id\":%d,\"name\":\"%s\",\"acct\":%s}" id (Json.escape name)
    (json_obj row)

let snapshot_text t =
  let rows = capture t in
  let header =
    Printf.sprintf "/stats snapshot @ %d cyc, %d domains" (Clock.now (clock t))
      (List.length rows)
  in
  let lines = List.map (fun (id, name, r) -> dom_line id name r) rows in
  String.concat "\n" ((header :: lines) @ [ Metrics.to_text (Obs.metrics (obs t)) ])

let snapshot_json t =
  Printf.sprintf "{\"at\":%d,\"domains\":[%s],\"metrics\":%s}" (Clock.now (clock t))
    (String.concat "," (List.map (fun (id, name, r) -> dom_json id name r) (capture t)))
    (Metrics.to_json (Obs.metrics (obs t)))

(* diff against the last [mark] — counters as deltas, pages as-is. A
   mark older than the latest [Obs.reset] counts as zero: the counts it
   saw are gone, so the delta is the activity since the reset. *)
let diff_rows t =
  let stale = Obs.resets (obs t) <> t.baseline_resets in
  List.map
    (fun (id, name, after) ->
      match List.assoc_opt id t.baseline with
      | Some before when not stale ->
        ( id, name,
          List.map2
            (fun (k, a) (_, b) -> (k, if String.equal k "pages" then a else a - b))
            after before )
      | _ -> (id, name, after))
    (capture t)

let diff_text t =
  let now = Clock.now (clock t) in
  let header =
    Printf.sprintf "/stats diff over %d cyc (%d..%d)" (now - t.baseline_at)
      t.baseline_at now
  in
  String.concat "\n"
    (header :: List.map (fun (id, name, r) -> dom_line id name r) (diff_rows t))

let diff_json t =
  let now = Clock.now (clock t) in
  Printf.sprintf "{\"from\":%d,\"to\":%d,\"domains\":[%s]}" t.baseline_at now
    (String.concat "," (List.map (fun (id, name, r) -> dom_json id name r) (diff_rows t)))

(* ---------------- per-domain directory objects ----------------------- *)

(* the metrics keyed to [d]: counters and gauges as (name, value) *)
let mine (d : Domain.t) l =
  List.filter_map (fun (dom, n, v) -> if dom = d.Domain.id then Some (n, v) else None) l

let domain_text t (d : Domain.t) =
  let m = Obs.metrics (obs t) in
  let kv (n, v) = Printf.sprintf "  %s=%d" n v in
  let histos =
    List.filter_map
      (fun (dom, n, s) ->
        if dom = d.Domain.id then
          Some (Printf.sprintf "  %s: %s" n (Metrics.summary_to_text s))
        else None)
      (Metrics.histograms m)
  in
  String.concat "\n"
    ((dom_line d.Domain.id d.Domain.name (row t d) :: List.map kv (mine d (Metrics.counters m)))
    @ List.map kv (mine d (Metrics.gauges m))
    @ histos)

let domain_json t (d : Domain.t) =
  let m = Obs.metrics (obs t) in
  Printf.sprintf "{\"id\":%d,\"name\":\"%s\",\"acct\":%s,\"counters\":%s,\"gauges\":%s}"
    d.Domain.id (Json.escape d.Domain.name) (json_obj (row t d))
    (json_obj (mine d (Metrics.counters m)))
    (json_obj (mine d (Metrics.gauges m)))

let domain_iface t (d : Domain.t) =
  Iface.make ~name:"stats.domain"
    [
      Iface.text_or_json "read"
        ~text:(fun () -> domain_text t d)
        ~json:(fun () -> domain_json t d);
      Iface.fn1 ~name:"value" Iface.Str ~ret:Vtype.Tint (fun _ name ->
          match List.assoc_opt name (row t d) with
          | Some v -> Ok (Value.Int v)
          | None -> Error (Oerror.Fault (Printf.sprintf "no accounting field %S" name)));
    ]

let domain_object t (d : Domain.t) =
  Instance.create t.api.Api.registry ~class_name:"obs.stats.domain"
    ~domain:t.api.Api.kernel_domain.Domain.id [ domain_iface t d ]

(* register /stats/<name> for every live domain that has none yet; the
   kernel domain is covered by /stats/kernel itself *)
let publish t =
  let fresh = ref 0 in
  List.iter
    (fun d ->
      if (not (Domain.is_kernel d)) && not (Hashtbl.mem t.published d.Domain.id) then begin
        let base = "/stats/" ^ d.Domain.name in
        let path =
          match Directory.register t.api.Api.directory (Path.of_string base) (domain_object t d) with
          | Ok () -> Some base
          | Error _ ->
            (* name collision between domains: qualify with the id *)
            let alt = Printf.sprintf "%s.%d" base d.Domain.id in
            (match
               Directory.register t.api.Api.directory (Path.of_string alt)
                 (domain_object t d)
             with
            | Ok () -> Some alt
            | Error _ -> None)
        in
        match path with
        | Some p ->
          Hashtbl.replace t.published d.Domain.id p;
          incr fresh
        | None -> ()
      end)
    (live_domains t);
  !fresh

(* ---------------- per-CPU view --------------------------------------- *)

module Cpu = Pm_machine.Cpu

(* One line per CPU of the machine. *)
let cpus_text t =
  Cpu.all_stats t.api.Api.machine
  |> List.map (fun (s : Cpu.cpu_stats) ->
         Printf.sprintf
           "cpu %d  cycles=%-10d halted=%d ipis_sent=%d ipis_recv=%d synced=%d"
           s.Cpu.cpu s.Cpu.cycles
           (if s.Cpu.halted_now then 1 else 0)
           s.Cpu.ipis_sent s.Cpu.ipis_recv s.Cpu.synced)
  |> String.concat "\n"

let cpus_json t =
  let one (s : Cpu.cpu_stats) =
    Printf.sprintf
      "{\"cpu\":%d,\"cycles\":%d,\"halted\":%b,\"ipis_sent\":%d,\"ipis_recv\":%d,\"synced\":%d}"
      s.Cpu.cpu s.Cpu.cycles s.Cpu.halted_now s.Cpu.ipis_sent s.Cpu.ipis_recv
      s.Cpu.synced
  in
  "[" ^ String.concat "," (List.map one (Cpu.all_stats t.api.Api.machine)) ^ "]"

(* ---------------- the /stats/kernel service object ------------------- *)

let kernel_iface t =
  let thunk f () = f t in
  Iface.make ~name:"stats"
    [
      Iface.text_or_json "snapshot" ~text:(thunk snapshot_text) ~json:(thunk snapshot_json);
      Iface.text_or_json "diff" ~text:(thunk diff_text) ~json:(thunk diff_json);
      Iface.fn0 ~name:"mark" ~ret:Vtype.Tunit (fun _ ->
          mark t;
          Ok Value.Unit);
      (* n <= 0: the whole surviving ring; n > 0: just the last n events *)
      Iface.fn1 ~name:"flight" Iface.Int ~ret:Vtype.Tstr (fun _ n ->
          Ok (Value.Str (Journal.flight_to_text (Obs.journal (obs t)) n)));
      Iface.fn0 ~name:"publish" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int (publish t)));
      Iface.text_or_json "cpus" ~text:(thunk cpus_text) ~json:(thunk cpus_json);
    ]

let create api ~domains () =
  let t =
    { api; domains; published = Hashtbl.create 8; baseline = []; baseline_at = 0;
      baseline_resets = 0; kernel_obj = None }
  in
  mark t;
  (* /stats/kernel doubles as the kernel domain's own directory object:
     it exports "stats" (kernel-wide) plus "stats.domain" bound to the
     kernel domain *)
  let inst =
    Instance.create api.Api.registry ~class_name:"obs.stats"
      ~domain:api.Api.kernel_domain.Domain.id
      [ kernel_iface t; domain_iface t api.Api.kernel_domain ]
  in
  t.kernel_obj <- Some inst;
  t

let kernel_object t =
  match t.kernel_obj with Some i -> i | None -> assert false

let published t = Hashtbl.fold (fun _ p acc -> p :: acc) t.published []

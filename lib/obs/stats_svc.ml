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
module Acct = Pm_obs.Acct
module Metrics = Pm_obs.Metrics
module Journal = Pm_journal.Journal
module Json = Pm_journal.Json

type t = {
  api : Api.t;
  domains : unit -> Domain.t list;
  published : (int, string) Hashtbl.t; (* domain id -> /stats path *)
  mutable baseline : (int * string * Acct.slot) list; (* id, name, copy *)
  mutable baseline_at : int;
  mutable kernel_obj : Instance.t option;
}

let clock t = Machine.clock t.api.Api.machine
let obs t = Clock.obs (clock t)

let live_domains t = List.filter (fun d -> d.Domain.alive) (t.domains ())

(* the [pages] field is a gauge: refresh it from Vmem before exporting *)
let refresh t =
  List.iter
    (fun d -> d.Domain.acct.Acct.pages <- Vmem.pages_of t.api.Api.vmem d)
    (live_domains t)

let capture t =
  refresh t;
  List.map (fun d -> (d.Domain.id, d.Domain.name, Acct.copy d.Domain.acct)) (live_domains t)

let mark t =
  t.baseline <- capture t;
  t.baseline_at <- Clock.now (clock t)

(* ---------------- exporters (reusing Metrics for the keyed data) ------ *)

let dom_line id name slot =
  Printf.sprintf "dom %-2d %-12s %s" id name (Acct.line slot)

let dom_json id name slot =
  Printf.sprintf "{\"id\":%d,\"name\":\"%s\",\"acct\":%s}" id (Json.escape name)
    (Acct.to_json slot)

let snapshot_text t =
  refresh t;
  let header =
    Printf.sprintf "/stats snapshot @ %d cyc, %d domains" (Clock.now (clock t))
      (List.length (live_domains t))
  in
  let lines =
    List.map (fun d -> dom_line d.Domain.id d.Domain.name d.Domain.acct) (live_domains t)
  in
  String.concat "\n" ((header :: lines) @ [ Metrics.to_text (Obs.metrics (obs t)) ])

let snapshot_json t =
  refresh t;
  Printf.sprintf "{\"at\":%d,\"domains\":[%s],\"metrics\":%s}" (Clock.now (clock t))
    (String.concat ","
       (List.map (fun d -> dom_json d.Domain.id d.Domain.name d.Domain.acct)
          (live_domains t)))
    (Metrics.to_json (Obs.metrics (obs t)))

(* diff against the last [mark] — counters as deltas, pages as-is *)
let diff_slots t =
  let current = capture t in
  List.map
    (fun (id, name, after) ->
      match List.find_opt (fun (i, _, _) -> i = id) t.baseline with
      | Some (_, _, before) -> (id, name, Acct.sub ~after ~before)
      | None -> (id, name, after))
    current

let diff_text t =
  let now = Clock.now (clock t) in
  let header =
    Printf.sprintf "/stats diff over %d cyc (%d..%d)" (now - t.baseline_at)
      t.baseline_at now
  in
  String.concat "\n"
    (header :: List.map (fun (id, name, s) -> dom_line id name s) (diff_slots t))

let diff_json t =
  let now = Clock.now (clock t) in
  Printf.sprintf "{\"from\":%d,\"to\":%d,\"domains\":[%s]}" t.baseline_at now
    (String.concat ","
       (List.map (fun (id, name, s) -> dom_json id name s) (diff_slots t)))

(* ---------------- per-domain directory objects ----------------------- *)

let domain_text t (d : Domain.t) =
  refresh t;
  let m = Obs.metrics (obs t) in
  let mine l = List.filter_map (fun (dom, n, v) -> if dom = d.Domain.id then Some (n, v) else None) l in
  let kv (n, v) = Printf.sprintf "  %s=%d" n v in
  let counters = mine (Metrics.counters m) and gauges = mine (Metrics.gauges m) in
  let histos =
    List.filter_map
      (fun (dom, n, s) ->
        if dom = d.Domain.id then
          Some (Printf.sprintf "  %s: %s" n (Metrics.summary_to_text s))
        else None)
      (Metrics.histograms m)
  in
  String.concat "\n"
    ((dom_line d.Domain.id d.Domain.name d.Domain.acct :: List.map kv counters)
    @ List.map kv gauges @ histos)

let domain_json t (d : Domain.t) =
  refresh t;
  let m = Obs.metrics (obs t) in
  let mine l = List.filter_map (fun (dom, n, v) -> if dom = d.Domain.id then Some (n, v) else None) l in
  let obj l =
    "{"
    ^ String.concat ","
        (List.map (fun (n, v) -> Printf.sprintf "\"%s\":%d" (Json.escape n) v) l)
    ^ "}"
  in
  Printf.sprintf "{\"id\":%d,\"name\":\"%s\",\"acct\":%s,\"counters\":%s,\"gauges\":%s}"
    d.Domain.id (Json.escape d.Domain.name) (Acct.to_json d.Domain.acct)
    (obj (mine (Metrics.counters m)))
    (obj (mine (Metrics.gauges m)))

let fmt_error meth = Error (Oerror.Type_error (meth ^ "(\"text\"|\"json\")"))

(* "text" or "json": the one value-domain check on a format argument *)
let text_or_json name ~text ~json =
  Iface.fn1 ~name Iface.Str ~ret:Vtype.Tstr (fun _ -> function
    | "text" -> Ok (Value.Str (text ()))
    | "json" -> Ok (Value.Str (json ()))
    | _ -> fmt_error name)

let domain_iface t (d : Domain.t) =
  Iface.make ~name:"stats.domain"
    [
      text_or_json "read"
        ~text:(fun () -> domain_text t d)
        ~json:(fun () -> domain_json t d);
      Iface.fn1 ~name:"value" Iface.Str ~ret:Vtype.Tint (fun _ name ->
          refresh t;
          match Acct.field d.Domain.acct name with
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

(* One line per CPU of the machine's SMP complex; a single synthetic
   line for uniprocessor machines so consumers need no special case. *)
let cpus_text t =
  match Cpu.find ~machine:t.api.Api.machine with
  | None ->
    Printf.sprintf "cpu 0  cycles=%-10d halted=0 ipis_sent=0 ipis_recv=0 synced=0"
      (Clock.now (clock t))
  | Some cpx ->
    Cpu.all_stats cpx
    |> List.map (fun (s : Cpu.cpu_stats) ->
           Printf.sprintf
             "cpu %d  cycles=%-10d halted=%d ipis_sent=%d ipis_recv=%d synced=%d"
             s.Cpu.cpu s.Cpu.cycles
             (if s.Cpu.halted_now then 1 else 0)
             s.Cpu.ipis_sent s.Cpu.ipis_recv s.Cpu.synced)
    |> String.concat "\n"

(* The raw (cpu, cycles) pairs behind [cpus_text] — what the placement
   agent's CPU-affinity loop reads as its load signal. *)
let cpu_loads t =
  match Cpu.find ~machine:t.api.Api.machine with
  | None -> [ (0, Clock.now (clock t)) ]
  | Some cpx ->
    List.map (fun (s : Cpu.cpu_stats) -> (s.Cpu.cpu, s.Cpu.cycles)) (Cpu.all_stats cpx)

let cpus_json t =
  let one (s : Cpu.cpu_stats) =
    Printf.sprintf
      "{\"cpu\":%d,\"cycles\":%d,\"halted\":%b,\"ipis_sent\":%d,\"ipis_recv\":%d,\"synced\":%d}"
      s.Cpu.cpu s.Cpu.cycles s.Cpu.halted_now s.Cpu.ipis_sent s.Cpu.ipis_recv
      s.Cpu.synced
  in
  match Cpu.find ~machine:t.api.Api.machine with
  | None ->
    Printf.sprintf
      "[{\"cpu\":0,\"cycles\":%d,\"halted\":false,\"ipis_sent\":0,\"ipis_recv\":0,\"synced\":0}]"
      (Clock.now (clock t))
  | Some cpx ->
    "[" ^ String.concat "," (List.map one (Cpu.all_stats cpx)) ^ "]"

(* ---------------- the /stats/kernel service object ------------------- *)

let kernel_iface t =
  let thunk f () = f t in
  Iface.make ~name:"stats"
    [
      text_or_json "snapshot" ~text:(thunk snapshot_text) ~json:(thunk snapshot_json);
      text_or_json "diff" ~text:(thunk diff_text) ~json:(thunk diff_json);
      Iface.fn0 ~name:"mark" ~ret:Vtype.Tunit (fun _ ->
          mark t;
          Ok Value.Unit);
      (* n <= 0: the whole surviving ring; n > 0: just the last n events *)
      Iface.fn1 ~name:"flight" Iface.Int ~ret:Vtype.Tstr (fun _ n ->
          Ok (Value.Str (Journal.flight_to_text (Obs.journal (obs t)) n)));
      Iface.fn0 ~name:"publish" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int (publish t)));
      text_or_json "cpus" ~text:(thunk cpus_text) ~json:(thunk cpus_json);
    ]

let create api ~domains () =
  let t =
    { api; domains; published = Hashtbl.create 8; baseline = []; baseline_at = 0;
      kernel_obj = None }
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

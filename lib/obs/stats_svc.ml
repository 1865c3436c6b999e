(* The /stats namespace: per-domain accounting made visible as ordinary
   objects. One service object at /stats/kernel exports the kernel-wide
   snapshot and flight dump, and each protection domain gets a directory
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
module Registry = Pm_obj.Registry
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Path = Pm_names.Path
module Obs = Pm_obs.Obs
module Metrics = Pm_obs.Metrics
module Journal = Pm_journal.Journal

type t = {
  api : Api.t;
  domains : unit -> Domain.t list;
  published : (int, string * Instance.t) Hashtbl.t; (* domain id -> path, object *)
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

(* ---------------- exporters (reusing Metrics for the keyed data) ------ *)

let dom_line id name row =
  Printf.sprintf "dom %-2d %-12s %s" id name
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) row))

let snapshot_text t =
  let rows = capture t in
  let header =
    Printf.sprintf "/stats snapshot @ %d cyc, %d domains" (Clock.now (clock t))
      (List.length rows)
  in
  let lines = List.map (fun (id, name, r) -> dom_line id name r) rows in
  String.concat "\n" ((header :: lines) @ [ Metrics.to_text (Obs.metrics (obs t)) ])

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

let domain_iface t (d : Domain.t) =
  Iface.make ~name:"stats.domain"
    [
      Iface.fn0 ~name:"read" ~ret:Vtype.Tstr (fun _ -> Ok (Value.Str (domain_text t d)));
      Iface.fn1 ~name:"value" Iface.Str ~ret:Vtype.Tint (fun _ name ->
          match List.assoc_opt name (row t d) with
          | Some v -> Ok (Value.Int v)
          | None -> Error (Oerror.Fault (Printf.sprintf "no accounting field %S" name)));
    ]

let domain_object t (d : Domain.t) =
  Instance.create t.api.Api.registry ~class_name:"obs.stats.domain"
    ~domain:t.api.Api.kernel_domain.Domain.id [ domain_iface t d ]

(* A torn-down domain's object is a kernel-domain instance, so the
   teardown's sweep passed it by: take its path and its registry slot
   back, as an unload does, which frees the name for the next domain. *)
let retire t (path, obj) =
  ignore (Directory.unregister t.api.Api.directory (Path.of_string path));
  Instance.revoke obj;
  Directory.release t.api.Api.directory obj;
  Registry.remove t.api.Api.registry (Instance.handle obj)

(* reconcile /stats with the live domains: retire the objects of dead
   ones, then register /stats/<name> for every live domain that has none
   yet; the kernel domain is covered by /stats/kernel itself. The object
   is built once and goes under the first free path: a name collision
   between domains qualifies the path with the id. *)
let publish t =
  let live = live_domains t in
  Hashtbl.filter_map_inplace
    (fun id entry ->
      if List.exists (fun d -> d.Domain.id = id) live then Some entry
      else begin
        retire t entry;
        None
      end)
    t.published;
  let fresh = ref 0 in
  List.iter
    (fun d ->
      if (not (Domain.is_kernel d)) && not (Hashtbl.mem t.published d.Domain.id) then begin
        let obj = domain_object t d in
        let base = "/stats/" ^ d.Domain.name in
        let free p =
          Result.is_ok (Directory.register t.api.Api.directory (Path.of_string p) obj)
        in
        match List.find_opt free [ base; Printf.sprintf "%s.%d" base d.Domain.id ] with
        | Some p ->
          Hashtbl.replace t.published d.Domain.id (p, obj);
          incr fresh
        | None -> Registry.remove t.api.Api.registry (Instance.handle obj)
      end)
    live;
  !fresh

(* ---------------- the /stats/kernel service object ------------------- *)

let kernel_iface t =
  Iface.make ~name:"stats"
    [
      Iface.fn0 ~name:"snapshot" ~ret:Vtype.Tstr (fun _ -> Ok (Value.Str (snapshot_text t)));
      (* n <= 0: the whole surviving ring; n > 0: just the last n events *)
      Iface.fn1 ~name:"flight" Iface.Int ~ret:Vtype.Tstr (fun _ n ->
          Ok (Value.Str (Journal.flight_to_text (Obs.journal (obs t)) n)));
    ]

let create api ~domains () =
  let t = { api; domains; published = Hashtbl.create 8; kernel_obj = None } in
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

let published t = Hashtbl.fold (fun _ (p, _) acc -> p :: acc) t.published []

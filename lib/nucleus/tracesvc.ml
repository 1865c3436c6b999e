module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Obs = Pm_obs.Obs
module Metrics = Pm_obs.Metrics
module Journal = Pm_journal.Journal

type installed = { agent : Instance.t; original : Instance.t }

type interposer = {
  install : string -> (installed, string) result;
  uninstall : string -> installed -> (unit, string) result;
}

type t = {
  machine : Machine.t;
  (* the agent factory lives above this library (it needs the component
     toolbox), so it is injected at system-assembly time *)
  mutable interposer : interposer option;
  installed : (string, installed) Hashtbl.t;
}

let create machine = { machine; interposer = None; installed = Hashtbl.create 8 }

let set_interposer t i = t.interposer <- Some i

let obs t = Clock.obs (Machine.clock t.machine)

let interpose t path =
  if Hashtbl.mem t.installed path then
    Error (Printf.sprintf "%s already has a trace agent" path)
  else begin
    match t.interposer with
    | None -> Error "no trace interposer factory installed"
    | Some i ->
      (match i.install path with
      | Ok inst ->
        Hashtbl.replace t.installed path inst;
        Ok inst.agent
      | Error _ as e -> e)
  end

let uninterpose t path =
  match Hashtbl.find_opt t.installed path with
  | None -> Error (Printf.sprintf "%s has no trace agent" path)
  | Some inst ->
    (match t.interposer with
    | None -> Error "no trace interposer factory installed"
    | Some i ->
      (match i.uninstall path inst with
      | Ok () ->
        Hashtbl.remove t.installed path;
        Ok ()
      | Error _ as e -> e))

(* The snapshot is two journal-derived views plus the metrics: how many
   spans were ever recorded, and the completed ones the tail still
   holds. *)
let snapshot_text t =
  let j = Obs.journal (obs t) in
  let spans = Journal.spans j in
  Printf.sprintf "spans: %d recorded, %d in the journal tail\n%s\n%s"
    (Journal.count j Journal.Span_exit) (List.length spans) (Journal.spans_to_text spans)
    (Metrics.to_text (Obs.metrics (obs t)))

let service_object t registry kdom =
  let unit_m name body =
    Iface.fn0 ~name ~ret:Vtype.Tunit (fun _ ->
        body (obs t);
        Ok Value.Unit)
  in
  let iface =
    Iface.make ~name:"trace"
      [
        unit_m "start" Obs.enable;
        unit_m "stop" Obs.disable;
        unit_m "reset" Obs.reset;
        Iface.fn0 ~name:"enabled" ~ret:Vtype.Tbool (fun _ ->
            Ok (Value.Bool (Obs.enabled (obs t))));
        Iface.fn0 ~name:"snapshot" ~ret:Vtype.Tstr (fun _ ->
            Ok (Value.Str (snapshot_text t)));
        Iface.fn2 ~name:"histogram" Iface.Int Iface.Str ~ret:Vtype.Tstr
          (fun _ domain name ->
            match Metrics.summary (Obs.metrics (obs t)) ~domain name with
            | Some s -> Ok (Value.Str (Metrics.summary_to_text s))
            | None ->
              Error (Oerror.Fault (Printf.sprintf "no samples for %d/%s" domain name)));
        Iface.fn1 ~name:"interpose" Iface.Str ~ret:Vtype.Tint (fun _ path ->
            match interpose t path with
            | Ok agent -> Ok (Value.Int (Instance.handle agent))
            | Error e -> Error (Oerror.Fault e));
        Iface.fn1 ~name:"uninterpose" Iface.Str ~ret:Vtype.Tunit (fun _ path ->
            match uninterpose t path with
            | Ok () -> Ok Value.Unit
            | Error e -> Error (Oerror.Fault e));
      ]
  in
  Instance.create registry ~class_name:"nucleus.trace" ~domain:kdom.Domain.id [ iface ]

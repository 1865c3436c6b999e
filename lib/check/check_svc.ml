(* /nucleus/check — the composition linter as a service object, shaped
   like /nucleus/trace: a kernel-domain instance that any domain reaches
   through the namespace (cross-domain via the usual proxy). Each run is
   recorded in the flight recorder, so a boot-time lint failure leaves
   its mark in the black box next to the traps and faults it predicts. *)

module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Obs = Pm_obs.Obs
module Directory = Pm_nucleus.Directory
module Events = Pm_nucleus.Events
module Domain = Pm_nucleus.Domain

type t = {
  machine : Machine.t;
  directory : Directory.t;
  events : Events.t;
  domains : (unit -> Domain.t list) option;
  mutable last : Lint.report option;
  mutable runs : int;
}

let create ~machine ~directory ~events ?domains () =
  { machine; directory; events; domains; last = None; runs = 0 }

let run t =
  let clock = Machine.clock t.machine in
  (* the history rules read the clock journal — the same one every
     nucleus site records into *)
  let journal = Obs.journal (Clock.obs clock) in
  let report =
    Lint.run ~machine:t.machine ~directory:t.directory ~events:t.events
      ~journal ?domains:t.domains ()
  in
  t.last <- Some report;
  t.runs <- t.runs + 1;
  (* always-on black-box entry: one record per run, info = error count *)
  Pm_journal.Journal.record journal ~kind:Pm_journal.Journal.Check
    ~domain:(Pm_machine.Mmu.current_context (Machine.mmu t.machine))
    ~at:(Clock.now clock)
    ~info:(List.length (Lint.errors report))
    ~detail:"";
  report

let last t = t.last
let runs t = t.runs

let service_object t registry kdom =
  let run_m _ctx = function
    | [] -> Ok (Value.Int (List.length (Lint.errors (run t))))
    | _ -> Error (Oerror.Type_error "run()")
  in
  let report_m _ctx = function
    | [] ->
      (match t.last with
      | None -> Ok (Value.Str "no lint run yet")
      | Some r -> Ok (Value.Str (Lint.report_to_string r)))
    | _ -> Error (Oerror.Type_error "report()")
  in
  let explain_m _ctx = function
    | [ Value.Str rule ] -> Ok (Value.Str (Lint.explain rule))
    | _ -> Error (Oerror.Type_error "explain(str)")
  in
  let rules_m _ctx = function
    | [] -> Ok (Value.Str (String.concat " " Lint.rules))
    | _ -> Error (Oerror.Type_error "rules()")
  in
  let iface =
    Iface.make ~name:"check"
      [
        Iface.meth ~name:"run" ~args:[] ~ret:Vtype.Tint run_m;
        Iface.meth ~name:"report" ~args:[] ~ret:Vtype.Tstr report_m;
        Iface.meth ~name:"explain" ~args:[ Vtype.Tstr ] ~ret:Vtype.Tstr explain_m;
        Iface.meth ~name:"rules" ~args:[] ~ret:Vtype.Tstr rules_m;
      ]
  in
  Instance.create registry ~class_name:"nucleus.check" ~domain:kdom.Domain.id [ iface ]

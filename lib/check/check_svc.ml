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

let runs t = t.runs

let service_object t registry kdom =
  let str s = Ok (Value.Str s) in
  let iface =
    Iface.make ~name:"check"
      [
        Iface.fn0 ~name:"run" ~ret:Vtype.Tint (fun _ ->
            Ok (Value.Int (List.length (Lint.errors (run t)))));
        Iface.fn0 ~name:"report" ~ret:Vtype.Tstr (fun _ ->
            match t.last with
            | None -> str "no lint run yet"
            | Some r -> str (Lint.report_to_string r));
        Iface.fn1 ~name:"explain" Iface.Str ~ret:Vtype.Tstr (fun _ rule ->
            str (Lint.explain rule));
        Iface.fn0 ~name:"rules" ~ret:Vtype.Tstr (fun _ ->
            str (String.concat " " Lint.rules));
      ]
  in
  Instance.create registry ~class_name:"nucleus.check" ~domain:kdom.Domain.id [ iface ]

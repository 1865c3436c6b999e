module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Obs = Pm_obs.Obs
module Journal = Pm_journal.Journal

let service_object machine registry kdom =
  let clock = Machine.clock machine in
  let j () = Obs.journal (Clock.obs clock) in
  let str s = Ok (Value.Str s) in
  let iface =
    Iface.make ~name:"journal"
      [
        Iface.fn0 ~name:"mode" ~ret:Vtype.Tstr (fun _ ->
            str (Journal.mode_to_string (Journal.mode (j ()))));
        Iface.fn1 ~name:"set_mode" Iface.Str ~ret:Vtype.Tunit (fun _ m ->
            match Journal.mode_of_string m with
            | Some mode ->
              Journal.set_mode (j ()) mode;
              Ok Value.Unit
            | None -> Error (Oerror.Type_error "set_mode(\"tail\"|\"full\")"));
        Iface.fn1 ~name:"snapshot" Iface.Int ~ret:Vtype.Tstr (fun _ n ->
            if n <= 0 then str (Journal.to_text (j ()))
            else str (Journal.tail_to_text (j ()) n));
        Iface.fn1 ~name:"mark" Iface.Str ~ret:Vtype.Tint (fun ctx label ->
            Ok
              (Value.Int
                 (Journal.mark (j ()) ~domain:ctx.Pm_obj.Call_ctx.origin_domain
                    ~at:(Clock.now clock) label)));
        Iface.fn0 ~name:"export" ~ret:Vtype.Tstr (fun _ ->
            str (Journal.export (j ())));
        Iface.fn0 ~name:"stats" ~ret:Vtype.Tstr (fun _ ->
            str (Journal.stats_line (j ())));
        Iface.fn0 ~name:"complete" ~ret:Vtype.Tbool (fun _ ->
            Ok (Value.Bool (Journal.complete (j ()))));
      ]
  in
  Instance.create registry ~class_name:"nucleus.journal" ~domain:kdom.Domain.id
    [ iface ]

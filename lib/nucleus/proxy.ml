module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Call_ctx = Pm_obj.Call_ctx
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke

let class_prefix = "proxy:"

let is_proxy inst =
  String.length inst.Instance.class_name >= String.length class_prefix
  && String.equal
       (String.sub inst.Instance.class_name 0 (String.length class_prefix))
       class_prefix

let make ~machine ~vmem ~registry ~target ~importer =
  (* the fault-hooked "interface entry" page in the importer's domain *)
  let entry_page = Vmem.alloc_pages vmem importer ~count:1 ~sharing:Vmem.Exclusive in
  Vmem.hook_page vmem importer ~vaddr:entry_page true;
  let forward_method iface_name (m : Iface.meth) =
    let forward (ctx : Call_ctx.t) args =
      if ctx.Call_ctx.caller_domain <> importer.Domain.id then
        Error
          (Oerror.Domain_error
             (Printf.sprintf "proxy belongs to domain %d, called from %d"
                importer.Domain.id ctx.Call_ctx.caller_domain))
      else if target.Instance.revoked then Error Oerror.Revoked
      else begin
        let clock = ctx.Call_ctx.clock and costs = ctx.Call_ctx.costs in
        (* always-on flight record of the crossing, charged nothing *)
        Pm_journal.Journal.record
          (Pm_obs.Obs.journal (Clock.obs clock))
          ~kind:Pm_journal.Journal.Crossing ~domain:importer.Domain.id
          ~at:(Clock.now clock) ~info:target.Instance.domain ~detail:"";
        (* referencing the interface entry faults into the kernel *)
        Clock.advance clock costs.Cost.page_fault;
        Clock.bump clock Clock.Proxy_fault;
        Clock.bump clock Clock.Cross_domain_call;
        (* map arguments into the target's domain, word by word *)
        let words_in = List.fold_left (fun acc v -> acc + Value.words v) 0 args in
        Clock.advance clock (words_in * costs.Cost.map_word);
        let mmu = Machine.mmu machine in
        let caller_ctx = Mmu.current_context mmu in
        Mmu.switch_context mmu target.Instance.domain;
        let result =
          Fun.protect
            ~finally:(fun () -> Mmu.switch_context mmu caller_ctx)
            (fun () ->
              Invoke.call
                (Call_ctx.in_domain ctx target.Instance.domain)
                target ~iface:iface_name ~meth:m.Iface.mname args)
        in
        (* map the return value back *)
        (match result with
        | Ok v -> Clock.advance clock (Value.words v * costs.Cost.map_word)
        | Error _ -> ());
        result
      end
    in
    (* span around the whole crossing: fault, argument mapping, context
       switches and the remote dispatch all land inside it *)
    let impl (ctx : Call_ctx.t) args =
      if not (Pm_obs.Obs.enabled (Clock.obs ctx.Call_ctx.clock)) then forward ctx args
      else
        Clock.span ctx.Call_ctx.clock ~costs:ctx.Call_ctx.costs ~domain:importer.Domain.id
          ~layer:"proxy" ~obj:(class_prefix ^ target.Instance.class_name)
          ~iface:iface_name ~meth:m.Iface.mname ~metric:"proxy.call"
          (fun () -> forward ctx args)
    in
    { m with Iface.impl }
  in
  let proxy_iface (i : Iface.t) =
    Iface.make ~name:i.Iface.name
      (List.map (forward_method i.Iface.name) i.Iface.methods)
  in
  Instance.create registry
    ~class_name:(class_prefix ^ target.Instance.class_name)
    ~domain:importer.Domain.id
    (List.map proxy_iface target.Instance.interfaces)

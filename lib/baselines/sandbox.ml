module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Call_ctx = Pm_obj.Call_ctx
module Invoke = Pm_obj.Invoke
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost

let class_prefix = "sandboxed:"

let is_sandboxed inst =
  String.length inst.Instance.class_name >= String.length class_prefix
  && String.equal
       (String.sub inst.Instance.class_name 0 (String.length class_prefix))
       class_prefix

let wrap registry ~target =
  let checked iface_name (m : Iface.meth) =
    let impl (ctx : Call_ctx.t) args =
      let clock = ctx.Call_ctx.clock and costs = ctx.Call_ctx.costs in
      (* sandbox crossing on entry/exit *)
      Clock.advance clock costs.Cost.sfi_entry;
      Clock.bump clock Clock.Sfi_crossing;
      let before = Call_ctx.accesses ctx in
      let result = Invoke.call ctx target ~iface:iface_name ~meth:m.Iface.mname args in
      let accesses = Call_ctx.accesses ctx - before in
      (* one address check per memory access the component performed *)
      Clock.advance clock (accesses * costs.Cost.sfi_check);
      Clock.bump_n clock Clock.Sfi_check accesses;
      result
    in
    { m with Iface.impl }
  in
  let sandboxed_iface (i : Iface.t) =
    Iface.make ~name:i.Iface.name
      (List.map (checked i.Iface.name) i.Iface.methods)
  in
  Instance.create registry
    ~class_name:(class_prefix ^ target.Instance.class_name)
    ~domain:target.Instance.domain
    (List.map sandboxed_iface target.Instance.interfaces)

let for_loader registry inst = wrap registry ~target:inst

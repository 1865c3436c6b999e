(* Partition: a bounds-checked window [base, base+count) onto a lower
   "block" component. Pure address translation — no state beyond the
   window — which makes it the simplest interposer in the stack and the
   usual seat for placement experiments (User vs Certified vs
   Verified). *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Instance = Pm_obj.Instance
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx

let fault msg = Error (Oerror.Fault msg)
let ( let* ) = Result.bind

type state = {
  lower : Blockif.lower;
  base : int;
  count : int;
  mutable reads : int;
  mutable writes : int;
}

let check st block =
  if block < 0 || block >= st.count then
    fault (Printf.sprintf "partition: block %d outside window of %d" block st.count)
  else Ok ()

let create api dom ~name ~lower ~base ~count () =
  if base < 0 || count <= 0 then invalid_arg "Partition.create: bad window";
  let st =
    { lower = Blockif.make_lower api dom lower; base; count; reads = 0; writes = 0 }
  in
  let iface =
    Blockif.methods
      ~read:(fun ctx block ->
        Blockif.traced_span api "partition" (fun () ->
            let* () = check st block in
            st.reads <- st.reads + 1;
            Blockif.read st.lower ctx (st.base + block)))
      ~write:(fun ctx block data ->
        Blockif.traced_span api "partition" (fun () ->
            let* () = check st block in
            st.writes <- st.writes + 1;
            Blockif.write st.lower ctx (st.base + block) data))
      ~flush:(fun ctx ->
        Blockif.traced_span api "partition" (fun () -> Blockif.flush st.lower ctx))
      ~size:(fun _ctx -> Ok st.count)
      ~blocksize:(fun () -> Blockif.block_size)
      ~stats:(fun () -> [ st.reads; st.writes ])
  in
  let inst =
    Instance.create api.Api.registry ~class_name:"store.partition"
      ~domain:dom.Domain.id [ iface ]
  in
  ignore
    (Storereg.register ~machine:api.Api.machine ~name ~kind:Storereg.Partition
       ~lower ~instance:inst ~domain:dom.Domain.id ());
  inst

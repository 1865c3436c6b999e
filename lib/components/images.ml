module Loader = Pm_nucleus.Loader
module Meta = Pm_secure.Meta
module Authority = Pm_secure.Authority

let image ~name ~size ?author ?type_safe construct =
  let meta = Meta.make ?author ?type_safe ~name ~size () in
  let code = Codegen.synthesize ~name ~size in
  { Loader.meta; code; cert = None; construct }

let certify authority ~now img =
  let outcome = Authority.certify authority img.Loader.meta ~code:img.Loader.code ~now in
  let img =
    match outcome.Authority.certificate with
    | Some cert -> { img with Loader.cert = Some cert }
    | None -> img
  in
  (img, outcome.Authority.trail)

let netdrv_construct ?config () api dom = Netdrv.create api dom ?config ()

let stack_construct ~addr ~driver_path api dom =
  Pm_obj.Composite.instance (Stack.create api dom ~addr ~driver_path)

let allocator_construct ~heap_pages api dom = Allocator.create api dom ~heap_pages

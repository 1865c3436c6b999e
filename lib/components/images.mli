(** Loader images for the toolbox components.

    Bridges the components to the repository/loader: each builder pairs a
    component constructor with synthesized object code ({!Codegen}) and
    metadata, producing a {!Pm_nucleus.Loader.image}. [certify] runs an
    image through a certification authority's delegate chain and attaches
    the resulting certificate (when one was granted). *)

(** [image ~name ~size ?author ?type_safe construct] makes an uncertified
    image with deterministic pseudo object code. *)
val image :
  name:string ->
  size:int ->
  ?author:string ->
  ?type_safe:bool ->
  Pm_nucleus.Loader.constructor ->
  Pm_nucleus.Loader.image

(** [certify authority ~now img] asks the authority's delegate chain to
    certify the image; returns the image with the certificate attached
    (unchanged if every delegate declined) and the certification trail. *)
val certify :
  Pm_secure.Authority.t ->
  now:int ->
  Pm_nucleus.Loader.image ->
  Pm_nucleus.Loader.image * (string * Pm_secure.Authority.verdict) list

(** Ready-made constructors. *)

val netdrv_construct : ?config:Netdrv.config -> unit -> Pm_nucleus.Loader.constructor

(** The stack constructor returns the composition's instance. *)
val stack_construct : addr:int -> driver_path:string -> Pm_nucleus.Loader.constructor

val allocator_construct : heap_pages:int -> Pm_nucleus.Loader.constructor

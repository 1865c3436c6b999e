(** Each machine's registry of live storage components, kept in the
    machine itself ({!Pm_machine.Machine.local}), so it is freed with it.

    Every {!Pm_store} component registers itself here at creation, the
    {!Store_svc} factory records where it is bound, and the composition
    linter walks the table ([iter_all], the {!Pm_chan.Chan.iter_all}
    idiom) to audit storage composition: a write-back cache must sit
    above — not below — its log/partition, and no [/store] endpoint may
    stay bound after its component detaches. Plain OCaml state; reading
    charges no simulated cycles. *)

type kind = Driver | Partition | Cache | Log | Kv

val kind_to_string : kind -> string

type entry = {
  name : string;
  kind : kind;
  lower : string option;  (** namespace path of the component below *)
  instance : Pm_obj.Instance.t;
  domain : int;
  mutable bound : string option;  (** [/store/<name>] while registered *)
  mutable detached : bool;
  dirty : unit -> int;  (** blocks still dirty above the lower layer *)
}

val register :
  machine:Pm_machine.Machine.t ->
  name:string ->
  kind:kind ->
  ?lower:string ->
  instance:Pm_obj.Instance.t ->
  domain:int ->
  ?dirty:(unit -> int) ->
  unit ->
  entry

val iter_all : machine:Pm_machine.Machine.t -> (entry -> unit) -> unit
val find : machine:Pm_machine.Machine.t -> string -> entry option
val set_bound : entry -> string option -> unit
val mark_detached : entry -> unit

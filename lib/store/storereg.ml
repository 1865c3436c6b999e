(* Each machine's registry of storage components, kept in the machine
   ({!Pm_machine.Machine.local}) — what the composition linter walks
   (like [Chan.iter_all]) to check that every write-back cache sits
   above its log/partition and that no /store endpoint is left dangling
   after a detach. Plain OCaml state: reading it charges no simulated
   cycles. *)

module Machine = Pm_machine.Machine
module Instance = Pm_obj.Instance

type kind = Driver | Partition | Cache | Log | Kv

let kind_to_string = function
  | Driver -> "driver"
  | Partition -> "partition"
  | Cache -> "cache"
  | Log -> "log"
  | Kv -> "kv"

type entry = {
  name : string;
  kind : kind;
  lower : string option; (* namespace path of the component below *)
  instance : Instance.t;
  domain : int;
  mutable bound : string option; (* /store/<name> while registered *)
  mutable detached : bool;
  dirty : unit -> int; (* blocks still dirty above the lower layer *)
}

(* one machine's entries, newest first *)
type entries = { mutable entries : entry list }

let entries_key : entries Type.Id.t = Type.Id.make ()
let entries_of machine =
  Machine.local machine entries_key (fun () -> { entries = [] })

let register ~machine ~name ~kind ?lower ~instance ~domain ?(dirty = fun () -> 0)
    () =
  let e =
    { name; kind; lower; instance; domain; bound = None; detached = false; dirty }
  in
  let r = entries_of machine in
  r.entries <- e :: r.entries;
  e

let iter_all ~machine f = List.iter f (List.rev (entries_of machine).entries)
let find ~machine name =
  List.find_opt (fun e -> e.name = name) (entries_of machine).entries

let set_bound e path = e.bound <- path
let mark_detached e = e.detached <- true

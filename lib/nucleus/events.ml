module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Clock = Pm_machine.Clock
module Obs = Pm_obs.Obs
module Journal = Pm_journal.Journal

type event = Trap of int | Irq of int

let event_to_string = function
  | Trap n -> Printf.sprintf "trap %d" n
  | Irq n -> Printf.sprintf "irq %d" n

type cb_id = int

(* [arg] narrows a call-back to the events raised with that argument (a
   doorbell's channel id), matched before [deliver] switches context *)
type callback = { id : cb_id; domain : Domain.t; arg : int option; fn : int -> unit }

type t = {
  machine : Machine.t;
  table : (event, callback list ref) Hashtbl.t;
  mutable next_id : cb_id;
  by_id : (cb_id, event) Hashtbl.t;
  mutable deliveries : int;
}

(* Run one call-back, switching into its domain (and back) when it is not
   the domain the event interrupted. *)
let deliver t cb arg =
  t.deliveries <- t.deliveries + 1;
  let mmu = Machine.mmu t.machine in
  let before = Mmu.current_context mmu in
  if before = cb.domain.Domain.id then cb.fn arg
  else begin
    Mmu.switch_context mmu cb.domain.Domain.id;
    Fun.protect ~finally:(fun () -> Mmu.switch_context mmu before) (fun () -> cb.fn arg)
  end

(* Instrumented delivery: a span plus a dispatch-latency histogram
   sample per call-back, gated on the tracing flag so the quiescent cost
   is one boolean test. *)
let deliver_traced t ~kind ~num cb arg =
  Clock.span (Machine.clock t.machine) ~costs:(Machine.costs t.machine)
    ~domain:cb.domain.Domain.id ~layer:"events" ~obj:"nucleus.events" ~iface:kind
    ~meth:(string_of_int num) ~metric:("events." ^ kind)
    (fun () -> deliver t cb arg)

let wants cb arg = match cb.arg with None -> true | Some a -> a = arg

let dispatch t event arg =
  let clock = Machine.clock t.machine in
  let obs = Clock.obs clock in
  let jkind, kind, num =
    match event with
    | Trap n -> (Journal.Trap, "trap", n)
    | Irq n -> (Journal.Irq, "irq", n)
  in
  (* always-on flight record — plain stores, no cycle charges; recorded
     before the table lookup so even an unhandled event leaves a trace *)
  Journal.record (Obs.journal obs) ~kind:jkind
    ~domain:(Mmu.current_context (Machine.mmu t.machine))
    ~at:(Clock.now clock) ~info:num ~detail:"";
  match Hashtbl.find_opt t.table event with
  | None -> ()
  | Some cbs ->
    if Obs.enabled obs then
      List.iter (fun cb -> if wants cb arg then deliver_traced t ~kind ~num cb arg) !cbs
    else List.iter (fun cb -> if wants cb arg then deliver t cb arg) !cbs

let create machine =
  let t =
    { machine; table = Hashtbl.create 16; next_id = 1; by_id = Hashtbl.create 16;
      deliveries = 0 }
  in
  (* own every vector: the nucleus is the sole machine-level handler *)
  for vec = 0 to Machine.trap_vector_count - 1 do
    Machine.set_trap_handler machine vec
      (Some
         (fun arg ->
           dispatch t (Trap vec) arg;
           0))
  done;
  for line = 0 to Machine.irq_line_count - 1 do
    Machine.set_irq_handler machine line (Some (fun () -> dispatch t (Irq line) 0))
  done;
  t

let register ?arg t event ~domain fn =
  let id = t.next_id in
  t.next_id <- id + 1;
  let cb = { id; domain; arg; fn } in
  (match Hashtbl.find_opt t.table event with
  | Some cbs -> cbs := !cbs @ [ cb ]
  | None -> Hashtbl.add t.table event (ref [ cb ]));
  Hashtbl.add t.by_id id event;
  let clock = Machine.clock t.machine in
  Journal.record
    (Obs.journal (Clock.obs clock))
    ~kind:Journal.Handler_add ~domain:domain.Domain.id ~at:(Clock.now clock)
    ~info:id ~detail:(event_to_string event);
  id

let register_popup t event ~domain ~sched ?priority fn =
  register t event ~domain (fun arg ->
      ignore
        (Pm_threads.Scheduler.popup sched ?priority ~name:"event-popup"
           ~domain:domain.Domain.id
           (fun () -> fn arg)))

let unregister t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> ()
  | Some event ->
    Hashtbl.remove t.by_id id;
    let domain = ref 0 in
    (match Hashtbl.find_opt t.table event with
    | Some cbs ->
      cbs :=
        List.filter
          (fun cb ->
            if cb.id = id then domain := cb.domain.Domain.id;
            cb.id <> id)
          !cbs
    | None -> ());
    let clock = Machine.clock t.machine in
    Journal.record
      (Obs.journal (Clock.obs clock))
      ~kind:Journal.Handler_del ~domain:!domain ~at:(Clock.now clock) ~info:id
      ~detail:(event_to_string event)

let remove_domain t dom =
  (* stale by_id entries are harmless: unregistering them later finds
     nothing to remove *)
  Hashtbl.iter
    (fun _ cbs ->
      cbs := List.filter (fun cb -> cb.domain.Domain.id <> dom.Domain.id) !cbs)
    t.table

let callbacks t event =
  match Hashtbl.find_opt t.table event with Some cbs -> List.length !cbs | None -> 0

let registrations t =
  Hashtbl.fold
    (fun event cbs acc ->
      List.fold_left (fun acc cb -> (event, cb.domain, cb.id) :: acc) acc !cbs)
    t.table []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)

let deliveries t = t.deliveries

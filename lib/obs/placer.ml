(* The adaptive placement agent: the control loop that closes the
   observability story. It watches the per-domain accounting view over
   the instrumentation points' metrics — crossing-cost share for a managed
   component, doorbell cost for a managed channel — and acts through the
   existing mechanisms: the loader/certsvc path for User<->Certified
   migration (via a caller-supplied migrate closure, since loading
   involves policy the agent does not own) and [Chan.set_mode] for
   Doorbell<->Poll flips. Decisions are epoch-based with confirmation
   streaks and a post-move cooldown, so the loop converges instead of
   flapping. *)

module Clock = Pm_machine.Clock
module Obs = Pm_obs.Obs
module Chan = Pm_chan.Chan

type placement = User | Certified

let placement_to_string = function User -> "user" | Certified -> "certified"

type action = Hold | Migrated of placement | Flipped of Chan.mode

(* The thresholds. A [User] component whose crossings take [up_share] of
   the epoch moves up, and [fault_demote] page faults in one epoch push a
   kernel-placed one back out. A doorbell channel whose rings take
   [ring_share] of the epoch flips to polling, and a polled channel with
   [idle_sends] or fewer sends flips back. A move must be wanted
   [confirm] epochs in a row, and [cooldown] epochs after it decide
   nothing. *)
let up_share = 0.2
let fault_demote = 3
let ring_share = 0.25
let idle_sends = 0
let confirm = 2
let cooldown = 1

(* The confirmation streak and post-move cooldown both decisions
   share. *)
type gate = { mutable streak : int; mutable cool : int }

type comp = {
  watch : int list; (* domains paying the crossings for this component *)
  migrate : placement -> bool;
  mutable placement : placement;
  mutable base : int * Obs.account list; (* [Obs.resets], watched rows *)
  cgate : gate;
}

type chan_ctl = { chan : Chan.t; mutable cbase : Chan.stats; fgate : gate }

type t = {
  clock : Clock.t;
  mutable last_now : int;
  mutable comp : comp option;
  mutable chan : chan_ctl option;
  mutable moves : int;
  mutable flips : int;
  mutable last_share : float;
  mutable last_ring_share : float;
}

let create ~clock () =
  {
    clock;
    last_now = Clock.now clock;
    comp = None;
    chan = None;
    moves = 0;
    flips = 0;
    last_share = 0.;
    last_ring_share = 0.;
  }

let gate () = { streak = 0; cool = 0 }

(* One epoch of a decision's gate. During the cooldown nothing is
   asked. Otherwise [want ()] names the move the signal asks for, and
   once [confirm] epochs in a row have asked, [act] performs it and says
   whether it happened; a move that happened starts the cooldown. *)
let step g ~want ~act =
  if g.cool > 0 then g.cool <- g.cool - 1
  else
    match want () with
    | None -> g.streak <- 0
    | Some target ->
      g.streak <- g.streak + 1;
      if g.streak >= confirm then begin
        g.streak <- 0;
        if act target then g.cool <- cooldown
      end

let snapshot_watch clock watch =
  let obs = Clock.obs clock in
  (Obs.resets obs, List.map (fun domain -> Obs.account obs ~domain) watch)

let manage t ~watch ~placement ~migrate () =
  t.comp <-
    Some { watch; migrate; placement; base = snapshot_watch t.clock watch; cgate = gate () }

let manage_channel t chan =
  t.chan <- Some { chan; cbase = Chan.stats chan; fgate = gate () }

let placement t = Option.map (fun c -> c.placement) t.comp
let moves t = t.moves
let flips t = t.flips
let crossing_share t = t.last_share
let doorbell_share t = t.last_ring_share

let comp_epoch t dt (c : comp) actions =
  let ((resets, after) as cur) = snapshot_watch t.clock c.watch in
  let base_resets, before = c.base in
  (* rows from before the latest Obs reset count as zero *)
  let was f a = if base_resets = resets then f a else 0 in
  let delta f = List.fold_left2 (fun acc b a -> acc + f a - was f b) 0 before after in
  let dcross = delta (fun (a : Obs.account) -> a.Obs.crossing_cycles) in
  let dfaults = delta (fun (a : Obs.account) -> a.Obs.faults) in
  c.base <- cur;
  let share = float_of_int dcross /. float_of_int dt in
  t.last_share <- share;
  let want () =
    match c.placement with
    (* crossings dominate: pull the component into the kernel *)
    | User when share >= up_share -> Some Certified
    (* the component faults: push it back behind a protection wall *)
    | Certified when dfaults >= fault_demote -> Some User
    | _ -> None
  in
  let act target =
    let t0 = Clock.now t.clock in
    let moved = c.migrate target in
    if moved then begin
      (* the clock just timed the migration itself (certification,
         reloading): journal it with that latency *)
      Pm_journal.Journal.record
        (Obs.journal (Clock.obs t.clock))
        ~kind:Pm_journal.Journal.Migrate
        ~domain:(match c.watch with d :: _ -> d | [] -> 0)
        ~at:(Clock.now t.clock) ~info:(Clock.now t.clock - t0)
        ~detail:(placement_to_string target);
      c.placement <- target;
      t.moves <- t.moves + 1;
      (* the migration perturbs the rates; re-baseline so the next
         epoch measures steady state *)
      c.base <- snapshot_watch t.clock c.watch;
      actions := Migrated target :: !actions
    end;
    moved
  in
  step c.cgate ~want ~act

let chan_epoch t dt (cc : chan_ctl) actions =
  let s = Chan.stats cc.chan in
  (* each ring's crossing as it was paid: its entry, a trap or a call,
     the switches when the consumer is another domain, the pop-up *)
  let dbell = s.Chan.bell_cycles - cc.cbase.Chan.bell_cycles in
  let dsends = s.Chan.sends - cc.cbase.Chan.sends in
  cc.cbase <- s;
  let share = float_of_int dbell /. float_of_int dt in
  t.last_ring_share <- share;
  let want () =
    match Chan.mode cc.chan with
    (* each message rings: the crossings dominate, so spin *)
    | Chan.Doorbell when share >= ring_share -> Some Chan.Poll
    (* idle channel: go back to sleeping on the doorbell *)
    | Chan.Poll when dsends <= idle_sends -> Some Chan.Doorbell
    | _ -> None
  in
  step cc.fgate ~want ~act:(fun m ->
      Chan.set_mode cc.chan m;
      t.flips <- t.flips + 1;
      actions := Flipped m :: !actions;
      true)

let epoch t =
  let now = Clock.now t.clock in
  let dt = max 1 (now - t.last_now) in
  t.last_now <- now;
  let actions = ref [] in
  Option.iter (fun c -> comp_epoch t dt c actions) t.comp;
  Option.iter (fun cc -> chan_epoch t dt cc actions) t.chan;
  match List.rev !actions with [] -> [ Hold ] | acts -> acts

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
module Cost = Pm_machine.Cost
module Cpu = Pm_machine.Cpu
module Obs = Pm_obs.Obs
module Chan = Pm_chan.Chan

type placement = User | Certified | Verified

let placement_to_string = function
  | User -> "user"
  | Certified -> "certified"
  | Verified -> "verified"

type action = Hold | Migrated of placement | Flipped of Chan.mode | Repinned of int

(* The thresholds. A [User] component whose crossings take [up_share] of
   the epoch moves up, and [fault_demote] page faults in one epoch push a
   kernel-placed one back out. A doorbell channel whose rings take
   [ring_share] of the epoch flips to polling, and a polled channel with
   [idle_sends] or fewer sends flips back. A re-pin needs the domain's
   CPU to out-run the least-loaded one by [cpu_gap] of the epoch. *)
let up_share = 0.2
let fault_demote = 3
let ring_share = 0.25
let idle_sends = 0
let cpu_gap = 0.1

(* The confirmation streak and post-move cooldown every dimension
   shares. *)
type gate = { mutable streak : int; mutable cool : int }

type comp = {
  watch : int list; (* domains paying the crossings for this component *)
  migrate : placement -> bool;
  verified_ok : bool; (* may the up-migration target be [Verified]? *)
  mutable move_cost : int;
      (* cycles a migration costs. The [manage] parameter only seeds it:
         every observed migration replaces the estimate with measured
         latency (first move) or folds it in (EWMA thereafter). *)
  mutable observed_moves : int;
  mutable placement : placement;
  mutable base : int * Obs.account list; (* [Obs.resets], watched rows *)
  cgate : gate;
  mutable moves : int;
  mutable defers : int; (* up-migrations declined by the payback check *)
}

type chan_ctl = {
  chan : Chan.t;
  mutable cbase : Chan.stats;
  fgate : gate;
  mutable flips : int;
}

(* The CPU-affinity dimension: one managed domain on the machine's CPUs.
   [loads] is the per-CPU cycle signal, read as epoch deltas. Same
   governor shape as the other two dimensions: threshold, payback
   horizon, confirmation streak, cooldown. *)
type cpu_ctl = {
  cpx : Cpu.t;
  cdom : int; (* the pinned domain being managed *)
  loads : unit -> (int * int) list;
  mutable cpu_move_cost : int;
      (* cycles a re-pin costs the domain (cold caches, queue transfer) *)
  mutable lbase : (int * int) list;
  kgate : gate;
  mutable cpu_moves : int;
  mutable cpu_defers : int; (* re-pins declined by the payback check *)
}

type t = {
  clock : Clock.t;
  costs : Cost.t;
  payback_window : int; (* epochs a migration has to earn its cost back *)
  confirm : int;
  cooldown : int;
  mutable last_now : int;
  mutable comps : comp list; (* in manage order *)
  mutable chan : chan_ctl option;
  mutable cpu : cpu_ctl option;
  mutable last_share : float;
  mutable last_ring_share : float;
  mutable last_cpu_gap : float;
}

let create ~clock ~costs ?(payback_window = 4) ?(confirm = 2) ?(cooldown = 1) () =
  {
    clock; costs; payback_window; confirm; cooldown;
    last_now = Clock.now clock;
    comps = [];
    chan = None;
    cpu = None;
    last_share = 0.;
    last_ring_share = 0.;
    last_cpu_gap = 0.;
  }

let gate () = { streak = 0; cool = 0 }

(* One epoch of a dimension's gate. During the cooldown nothing is
   asked. Otherwise [want ()] names the move the signal asks for, and
   once [confirm] epochs in a row have asked, [act] performs it and says
   whether it happened; a move that happened starts the cooldown. *)
let step t g ~want ~act =
  if g.cool > 0 then g.cool <- g.cool - 1
  else
    match want () with
    | None -> g.streak <- 0
    | Some target ->
      g.streak <- g.streak + 1;
      if g.streak >= t.confirm then begin
        g.streak <- 0;
        if act target then g.cool <- t.cooldown
      end

let snapshot_watch clock watch =
  let obs = Clock.obs clock in
  (Obs.resets obs, List.map (fun domain -> Obs.account obs ~domain) watch)

let manage t ~watch ~placement ?(verified_ok = false) ?(move_cost = 0) ~migrate () =
  t.comps <-
    t.comps
    @ [
        { watch; migrate; verified_ok; move_cost; observed_moves = 0; placement;
          base = snapshot_watch t.clock watch; cgate = gate (); moves = 0;
          defers = 0 };
      ]

let manage_channel t chan =
  t.chan <- Some { chan; cbase = Chan.stats chan; fgate = gate (); flips = 0 }

let manage_cpu t ~complex ~domain ?loads ?(move_cost = 0) () =
  let loads =
    match loads with
    | Some f -> f
    | None ->
      (* default to the same (cpu, cycles) signal /stats exports *)
      fun () ->
        List.map (fun (s : Cpu.cpu_stats) -> (s.Cpu.cpu, s.Cpu.cycles))
          (Cpu.all_stats complex)
  in
  (* seed the move estimate with something physical if the caller has no
     better guess: the domain's working set re-warming on the new CPU *)
  let move_cost = if move_cost > 0 then move_cost else 32 * t.costs.Cost.cacheline in
  t.cpu <-
    Some
      { cpx = complex; cdom = domain; loads; cpu_move_cost = move_cost;
        lbase = loads (); kgate = gate (); cpu_moves = 0; cpu_defers = 0 }

let placement t =
  match t.comps with c :: _ -> Some c.placement | [] -> None

let placements t = List.map (fun c -> c.placement) t.comps
let move_costs t = List.map (fun c -> c.move_cost) t.comps
let moves t = List.fold_left (fun acc c -> acc + c.moves) 0 t.comps
let deferrals t = List.fold_left (fun acc c -> acc + c.defers) 0 t.comps
let flips t = match t.chan with Some c -> c.flips | None -> 0
let cpu_moves t = match t.cpu with Some k -> k.cpu_moves | None -> 0
let cpu_deferrals t = match t.cpu with Some k -> k.cpu_defers | None -> 0
let crossing_share t = t.last_share
let doorbell_share t = t.last_ring_share
let cpu_imbalance t = t.last_cpu_gap

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
    (* crossings dominate: pull the component into the kernel. When
       the component's bytecode is verifiable, prefer the [Verified]
       admission — same zero per-access cost, no signer needed. *)
    | User when share >= up_share ->
      (* payback check: the crossings saved over the horizon must
         cover what the migration itself costs, else moving loses
         cycles even though the share looks high *)
      if c.move_cost > t.payback_window * dcross then begin
        c.defers <- c.defers + 1;
        None
      end
      else Some (if c.verified_ok then Verified else Certified)
    (* the component faults: push it back behind a protection wall *)
    | (Certified | Verified) when dfaults >= fault_demote -> Some User
    | _ -> None
  in
  let act target =
    let t0 = Clock.now t.clock in
    let moved, target =
      if c.migrate target then (true, target)
      else if target = Verified && c.migrate Certified then
        (* the verifier balked at this code: certification is the
           next-cheapest admission with the same per-access cost *)
        (true, Certified)
      else (false, target)
    in
    if moved then begin
      (* learn the real move cost: the clock just timed this very
         migration (certification latency, reload), which beats any
         caller-supplied guess. First observation replaces the seed;
         later ones are averaged in so one outlier cannot swing the
         payback check. *)
      let latency = Clock.now t.clock - t0 in
      c.move_cost <-
        (if c.observed_moves = 0 then latency
         else (c.move_cost + latency + 1) / 2);
      c.observed_moves <- c.observed_moves + 1;
      Pm_journal.Journal.record
        (Obs.journal (Clock.obs t.clock))
        ~kind:Pm_journal.Journal.Migrate
        ~domain:(match c.watch with d :: _ -> d | [] -> 0)
        ~at:(Clock.now t.clock) ~info:latency
        ~detail:(placement_to_string target);
      c.placement <- target;
      c.moves <- c.moves + 1;
      (* the migration itself (certification, reloading) perturbs the
         rates; re-baseline so the next epoch measures steady state *)
      c.base <- snapshot_watch t.clock c.watch;
      actions := Migrated target :: !actions
    end;
    moved
  in
  step t c.cgate ~want ~act

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
  step t cc.fgate ~want ~act:(fun m ->
      Chan.set_mode cc.chan m;
      cc.flips <- cc.flips + 1;
      actions := Flipped m :: !actions;
      true)

let cpu_epoch t dt (k : cpu_ctl) actions =
  let cur = k.loads () in
  let base = k.lbase in
  k.lbase <- cur;
  let d cpu =
    let at l = match List.assoc_opt cpu l with Some v -> v | None -> 0 in
    at cur - at base
  in
  let mine = Cpu.cpu_of k.cpx ~domain:k.cdom in
  let dmine = d mine in
  (* least-loaded CPU this epoch, ties to the lowest id *)
  let best, dbest =
    List.fold_left
      (fun (bc, bd) (c, _) ->
        let dc = d c in
        if dc < bd then (c, dc) else (bc, bd))
      (mine, dmine) cur
  in
  let imbalance = dmine - dbest in
  t.last_cpu_gap <- float_of_int imbalance /. float_of_int dt;
  let want () =
    if best <> mine && t.last_cpu_gap >= cpu_gap then
      (* payback: moving can recover at most half the imbalance per
         epoch (the load splits); over the horizon that must cover the
         re-pin cost — cold caches on the new CPU — else stay put *)
      if k.cpu_move_cost > t.payback_window * (imbalance / 2) then begin
        k.cpu_defers <- k.cpu_defers + 1;
        None
      end
      else Some best
    else None
  in
  step t k.kgate ~want ~act:(fun target ->
      Cpu.pin k.cpx ~domain:k.cdom ~cpu:target;
      Pm_journal.Journal.record
        (Obs.journal (Clock.obs t.clock))
        ~kind:Pm_journal.Journal.Migrate ~domain:k.cdom
        ~at:(Clock.now t.clock) ~info:imbalance
        ~detail:(Printf.sprintf "cpu=%d" target);
      k.cpu_moves <- k.cpu_moves + 1;
      k.lbase <- k.loads ();
      actions := Repinned target :: !actions;
      true)

let epoch t =
  let now = Clock.now t.clock in
  let dt = max 1 (now - t.last_now) in
  t.last_now <- now;
  let actions = ref [] in
  List.iter (fun c -> comp_epoch t dt c actions) t.comps;
  (match t.chan with Some cc -> chan_epoch t dt cc actions | None -> ());
  (match t.cpu with Some k -> cpu_epoch t dt k actions | None -> ());
  match List.rev !actions with [] -> [ Hold ] | acts -> acts

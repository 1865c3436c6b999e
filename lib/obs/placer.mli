(** Obs-driven adaptive placement agent.

    Closes the loop between the per-domain accounting
    ({!Pm_obs.Obs.account}, a view over the span metrics) and the
    placement trade quantified by experiments E4/E13: every
    {!epoch}, the agent measures

    - the managed component's *crossing-cost share* — proxy-crossing
      cycles charged to the watched domains divided by the epoch's total
      cycles — and migrates the component [User] → [Certified] (via the
      caller's migrate closure, which goes through the normal
      loader/certsvc path) when the share stays at 0.2 or above for
      [confirm] consecutive epochs; a fault burst (3 page faults in one
      epoch) demotes a [Certified] component back to [User];
    - the managed channel's *doorbell-cost share* — doorbells times
      {!Pm_machine.Cost.doorbell_crossing} over the epoch's cycles — and
      flips it [Doorbell] → [Poll] when ringing takes 0.25 of the epoch
      or more, or back to [Doorbell] when the channel goes idle (no
      sends in an epoch).

    Confirmation streaks plus a post-move cooldown (during which no
    decisions are taken and the baseline is re-captured, so certification
    spikes are not misread as load) give the loop hysteresis: it
    converges to the static-best configuration instead of flapping.

    Accounting only advances while tracing is enabled, so the agent is
    only meaningful with [Obs.enabled] on — matching its role as an
    observability consumer. An [Obs.reset] between two epochs zeroes
    the baseline: the next epoch measures the activity since the
    reset. *)

type placement = User | Certified | Verified

val placement_to_string : placement -> string

type action =
  | Hold
  | Migrated of placement
  | Flipped of Pm_chan.Chan.mode
  | Repinned of int  (** the managed domain was re-pinned to this CPU *)

type t

(** [confirm] (default 2) is the streak of epochs a move must be wanted
    for before it is taken, and [cooldown] (default 1) the epochs after a
    move in which no decision is taken. *)
val create :
  clock:Pm_machine.Clock.t ->
  costs:Pm_machine.Cost.t ->
  ?payback_window:int ->
  ?confirm:int ->
  ?cooldown:int ->
  unit ->
  t

(** [manage t ~watch ~placement ~migrate] puts one component under
    control; calling it again adds further components, all sharing the
    agent's epoch cadence and hysteresis parameters (each keeps its own
    streak, cooldown, and baseline). [watch] lists the domain ids paying
    the proxy crossings (for a [User]-placed service, the importing
    domains). [verified_ok] (default [false]) declares the component's
    bytecode verifiable, making [Verified] the preferred up-migration
    target (with [Certified] as fallback when the migrate closure
    refuses it). [migrate p] performs the actual move and returns
    whether it succeeded.

    [move_cost] (cycles, default 0) seeds the estimate of what the
    migration itself costs — certification latency, reloading. An
    up-migration is only taken when the crossings measured in the epoch,
    projected over [payback_window] epochs (default 4, on {!create}),
    cover that cost; otherwise the decision is deferred and counted in
    {!deferrals}. The seed [0] disables the check until a move has been
    observed: each migration is timed on the clock and the measured
    latency replaces the estimate (first move) or is averaged in
    (later moves) — see {!move_costs}. Migrations are journalled as
    [Migrate] events carrying the observed latency. *)
val manage :
  t ->
  watch:int list ->
  placement:placement ->
  ?verified_ok:bool ->
  ?move_cost:int ->
  migrate:(placement -> bool) ->
  unit ->
  unit

(** Puts one channel's Doorbell/Poll mode under control. *)
val manage_channel : t -> Pm_chan.Chan.t -> unit

(** [manage_cpu t ~complex ~domain ()] puts [domain]'s CPU affinity on
    the machine's CPUs ([complex]) under control. Every epoch the agent
    reads per-CPU load — [loads] defaults to their own (cpu, cycles)
    pairs, the same signal [/stats/kernel]'s [cpus] method exports — and
    re-pins the domain to the least-loaded CPU when its current CPU
    out-runs it by at least 0.1 of the epoch for [confirm]
    consecutive epochs, subject to the same payback-horizon check as
    component migration: the re-pin cost ([move_cost], default
    [32 * cacheline] — the working set re-warming) must be covered by
    half the imbalance projected over [payback_window] epochs,
    otherwise the move is deferred and counted in {!cpu_deferrals}.
    Re-pins are journalled as [Migrate] events with detail ["cpu=N"]
    and the observed imbalance as [info]. *)
val manage_cpu :
  t ->
  complex:Pm_machine.Cpu.t ->
  domain:int ->
  ?loads:(unit -> (int * int) list) ->
  ?move_cost:int ->
  unit ->
  unit

(** Evaluate one epoch; performs at most one migration and one flip.
    Returns the actions taken ([[Hold]] when none). *)
val epoch : t -> action list

val placement : t -> placement option

(** Placements of all managed components, in [manage] order. *)
val placements : t -> placement list

(** Current move-cost estimates, in [manage] order: the [move_cost]
    seed until the first observed migration, learned latency after. *)
val move_costs : t -> int list

(** Total migrations across all managed components. *)
val moves : t -> int

(** Up-migrations declined because the projected saving over the
    payback window did not cover the move's cost. *)
val deferrals : t -> int
val flips : t -> int

(** Re-pins performed / declined by the CPU-affinity dimension. *)
val cpu_moves : t -> int

val cpu_deferrals : t -> int

(** Crossing-cost / doorbell-cost share measured in the last epoch. *)
val crossing_share : t -> float

val doorbell_share : t -> float

(** CPU load imbalance (share of the epoch) measured in the last epoch
    by the CPU-affinity dimension; 0 when unmanaged. *)
val cpu_imbalance : t -> float

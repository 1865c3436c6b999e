(** Obs-driven adaptive placement agent.

    Closes the loop between the per-domain accounting
    ({!Pm_obs.Obs.account}, a view over the span metrics) and the
    placement trade quantified by experiments E4/E13: every
    {!epoch}, the agent measures

    - the managed component's *crossing-cost share* — proxy-crossing
      cycles charged to the watched domains divided by the epoch's total
      cycles — and migrates the component [User] → [Certified] (via the
      caller's migrate closure, which goes through the normal
      loader/certsvc path) when the share is 0.2 or above; a fault burst
      (3 page faults in one epoch) demotes a [Certified] component back
      to [User];
    - the managed channel's *doorbell-cost share* — the cycles its
      doorbells' crossings cost in the epoch, each priced as it was paid
      ({!Pm_chan.Chan.enter_doorbell}: a trap or a call, the switches
      when the consumer is another domain, the pop-up), over the epoch's
      cycles — and flips it [Doorbell] → [Poll] when ringing takes 0.25
      of the epoch or more, or back to [Doorbell] when the channel goes
      idle (no sends in an epoch).

    A move is taken once it has been wanted 2 epochs in a row, and no
    decision is taken in the epoch after a move (the baseline is
    re-captured, so certification spikes are not misread as load). That
    hysteresis makes the loop converge to the static-best configuration
    instead of flapping.

    Accounting only advances while tracing is enabled, so the agent is
    only meaningful with [Obs.enabled] on — matching its role as an
    observability consumer. An [Obs.reset] between two epochs zeroes
    the baseline: the next epoch measures the activity since the
    reset. *)

type placement = User | Certified

val placement_to_string : placement -> string

type action = Hold | Migrated of placement | Flipped of Pm_chan.Chan.mode

type t

(** [create ~clock ()] is an agent that manages nothing yet. Its epochs
    are measured on [clock], whose {!Pm_obs.Obs} sink it reads. *)
val create : clock:Pm_machine.Clock.t -> unit -> t

(** [manage t ~watch ~placement ~migrate ()] puts one component under
    control; a second call replaces it. [watch] lists the domain ids
    paying the proxy crossings (for a [User]-placed service, the
    importing domains). [migrate p] performs the actual move and returns
    whether it succeeded. Each migration is journalled as a [Migrate]
    event charged to the first watched domain, carrying the cycles the
    closure took. *)
val manage :
  t -> watch:int list -> placement:placement -> migrate:(placement -> bool) -> unit -> unit

(** Puts one channel's Doorbell/Poll mode under control. *)
val manage_channel : t -> Pm_chan.Chan.t -> unit

(** Evaluate one epoch; performs at most one migration and one flip.
    Returns the actions taken ([[Hold]] when none). *)
val epoch : t -> action list

val placement : t -> placement option

(** Migrations and flips made so far. *)
val moves : t -> int

val flips : t -> int

(** Crossing-cost / doorbell-cost share measured in the last epoch. The
    doorbell share counts only cycles its channel's doorbells charged in
    the epoch, so it is at most 1 while both endpoints run on the
    placer's CPU. *)
val crossing_share : t -> float

val doorbell_share : t -> float

(** Event-sourced system history.

    One cycle-stamped stream of everything the nucleus mediates:
    execution events (trap / irq / fault / crossing / sched dispatch /
    lint run / thread crash) and structural mutations (component
    install/detach, namespace bind/unbind, interposition, event-handler
    registration, page sharing, domain lifecycle, placement migration,
    composition transactions, user marks).

    Recording is plain OCaml stores and charges no simulated cycles, so
    the journal never perturbs what it records — the zero-cost-when-off
    contract of the observability layer extends to always-on history.
    Because the simulated machine is deterministic, a [Full]-mode
    journal is replayable: re-running the same scenario reproduces the
    {!export} byte for byte.

    The black box and the span tracer are views over this journal, not
    recorders of their own: {!flight} is the tail filtered to the
    always-on execution records, {!spans} pairs the tail's
    {!Span_enter}/{!Span_exit} events into completed spans. *)

type kind =
  | Trap
  | Irq
  | Fault
  | Crossing
  | Sched
  | Check
  | Crash  (** a thread or pop-up died on an uncaught exception *)
  | Install  (** loader placed a component ([detail] = name @ path) *)
  | Detach  (** loader unloaded a component *)
  | Bind  (** a name was registered ([detail] = path) *)
  | Unbind  (** a name was unregistered *)
  | Interpose  (** Directory.replace swapped the object behind a name *)
  | Uninterpose  (** an interposition was undone (transaction rollback) *)
  | Handler_add  (** an event call-back was registered *)
  | Handler_del
  | Page_share  (** a frame was mapped into a second domain *)
  | Page_unshare  (** a shared mapping was released *)
  | Domain_up
  | Domain_down
  | Migrate  (** the placement agent moved a component ([info] = observed latency) *)
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Mark  (** user annotation via /nucleus/journal *)
  | Blk_issue  (** a block DMA descriptor was fetched by the device *)
  | Blk_complete  (** a block DMA completed ([info] = block number) *)
  | Cache_flush  (** a write-back cache flushed dirty blocks downstream *)
  | Req_begin  (** a traced request entered the system ([info] = rid) *)
  | Req_end  (** a traced request completed ([info] = rid) *)
  | Span_enter
      (** a layer was entered: a traced request crossing the store/net
          path, or an observability span ([detail] starts with the layer
          name, e.g. ["kv"] or ["proxy echo.echo proxy:test.echo"]) *)
  | Span_exit  (** the matching exit, same [detail] and [rid] as its enter *)
  | Trace_note  (** a point annotation on a traced request (demux, cache hit/miss, log append) *)

val is_execution : kind -> bool
val is_structural : kind -> bool
val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type event = {
  seq : int;  (** recording order, monotonically increasing *)
  at : int;  (** virtual-cycle timestamp *)
  domain : int;
  kind : kind;
  info : int;  (** kind-specific scalar (vector, vpage, frame, tid, ...) *)
  detail : string;  (** "" on hot paths; context elsewhere *)
  rid : int;  (** causal request id from {!Trace.current}; 0 untraced *)
  cpu : int;  (** CPU the event was issued from; 0 on uniprocessor runs *)
}

type mode =
  | Tail  (** bounded ring of recent events + complete structural archive *)
  | Full  (** every event retained (up to [retain], then compacted) *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type t

val default_tail_capacity : int
val default_retain : int

(** [set_default_mode m] sets the mode new journals start in. The replay
    harness flips this to [Full] around a recorded run so boot-time
    events are captured too; everything else leaves it at [Tail]. *)
val set_default_mode : mode -> unit

val create : ?tail_capacity:int -> ?retain:int -> unit -> t
val mode : t -> mode

(** Switching to [Full] starts a fresh complete stream at the current
    sequence number; switching back to [Tail] stops extending it. *)
val set_mode : t -> mode -> unit

(** [set_cpu t c] makes [c] the CPU id stamped on [t]'s next events.
    The machine that owns the journal calls it on every CPU switch
    ({!Pm_machine.Machine.switch_cpu}); it starts at 0 and stays there on
    uniprocessor runs, so their exports stay byte-identical — an event
    with [cpu = 0] prints and exports exactly as before the field
    existed. *)
val set_cpu : t -> int -> unit

(** [record t ...] appends one event stamped with the ambient request id
    ({!Trace.current}), or with [rid] when given. *)
val record :
  ?rid:int -> t -> kind:kind -> domain:int -> at:int -> info:int -> detail:string -> unit

(** [mark t ~domain ~at label] records a {!Mark} and returns its seq. *)
val mark : t -> domain:int -> at:int -> string -> int

(** Ingress of a traced request: mint a rid, make it ambient, record
    {!Req_begin}. Returns 0 and records nothing when tracing is off. *)
val req_begin : t -> domain:int -> at:int -> detail:string -> int

(** Completion of a traced request: record {!Req_end}, clear the
    ambient scope. A no-op when tracing is off or [rid] is 0. *)
val req_end : t -> domain:int -> at:int -> int -> unit

val written : t -> int
val exec_written : t -> int
val count : t -> kind -> int
val tail_capacity : t -> int

(** Events retained in the [Full] history. *)
val retained : t -> int

(** Events dropped from the [Full] history by the [retain] bound. *)
val compacted : t -> int

(** The history covers the whole run: [Full] since event 0, nothing
    compacted. Replay equality is only meaningful when this holds. *)
val complete : t -> bool

(** Surviving tail-ring events, oldest first. *)
val tail : t -> event list

(** The retained [Full]-mode history, oldest first. *)
val history : t -> event list

(** The always-on structural archive, oldest first. *)
val structural : t -> event list

val reset : t -> unit

(** {2 Rendering} *)

val event_to_text : event -> string
val stats_line : t -> string
val to_text : t -> string

(** The [n] most recent tail events, one line each. *)
val tail_to_text : t -> int -> string

(** {2 Views over the tail} *)

(** The flight recorder: the tail restricted to traps, interrupts,
    faults, crossings, dispatches, lint runs and crashes, oldest first.
    These are recorded whatever the tracing flags say. *)
val flight : t -> event list

(** [flight_to_text t n] is the black-box dump: a ["flight: ..."]
    header, then the [n] most recent {!flight} events ([n <= 0]: all). *)
val flight_to_text : t -> int -> string

(** A completed span: its {!Span_enter} event, when it exited and how
    many spans enclosed it. *)
type span = { enter : event; exit_at : int; depth : int }

(** The completed spans in the tail, in completion order: each
    {!Span_exit} paired with the innermost open {!Span_enter} of the
    same detail. Exits whose enter has left the ring are skipped. *)
val spans : t -> span list

(** One line per span in call-tree order, indented by depth. *)
val spans_to_text : span list -> string

(** {2 Replay export / import} *)

(** Versioned line format: a header recording completeness, then one
    [%S]-quoted line per retained history event. Byte-stable across
    identical runs — the replay contract. *)
val export : t -> string

(** [import s] parses an {!export}. Any line that is not exactly an
    exported event — unknown kind, trailing words, a [rid=]/[cpu=]
    suffix that is zero, out of range, misordered or empty — is a named
    [Error]; no input makes it raise. *)
val import : string -> (event list, string) result

type import_result = { events : event list; complete : bool }

(** Like {!import}, but also surfaces the header's completeness flag so
    consumers can fail soft on truncated (non-complete) histories. *)
val import_all : string -> (import_result, string) result

val event_equal : event -> event -> bool

type divergence = { index : int; expected : event option; got : event option }

val first_divergence :
  expected:event list -> got:event list -> divergence option

val divergence_to_string : divergence -> string

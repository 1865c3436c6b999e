(** Time-travel queries over the journal.

    Folds a [Full]-mode event stream into per-request causal span
    trees with per-layer cycle attribution and critical-path
    extraction, and folds the structural archive into state-at-cycle
    answers. Pure functions over exported events; malformed histories
    produce named [Error]s, never exceptions. *)

type span = {
  layer : string;
      (** the first word of the span's detail: "kv", "log", "cache",
          "partition", "driver", or an observability layer such as
          "invoke", "proxy", "chan" *)
  enter_at : int;
  exit_at : int;
  cpu : int;  (** CPU the Span_enter was issued from (0 on uniprocessor) *)
  children : span list;
}

type media = { block : int; issue_at : int; complete_at : int }

type request = {
  rid : int;
  label : string;  (** the Req_begin detail, e.g. "put key-0" *)
  begin_at : int;
  end_at : int;
  cpu : int;  (** CPU the Req_begin was issued from *)
  spans : span list;
  notes : (int * string * int) list;  (** at, detail, info *)
  media : media list;
}

val duration : request -> int
val span_duration : span -> int

(** Fold an event stream into completed requests, in completion order.
    Fails soft with a named error on an incomplete history
    ([complete:false]) or an unbalanced span tree. Traced events
    outside any request window are ignored; requests still open at the
    end of the stream are dropped. *)
val fold :
  complete:bool -> Pm_journal.Journal.event list -> (request list, string) result

(** Exclusive cycles per layer — each span minus its children and any
    media wait charged to it; "net" is the time outside all spans,
    "media" the device wait. Sums exactly to {!duration}. *)
val attribution : request -> (string * int) list

(** Layer names from the request root to the dominant leaf consumer;
    ends with "media" when the device wait dominates the leaf span. *)
val critical_path : request -> string list

val slowest : int -> request list -> request list
val layer_totals : request list -> (string * int) list

val request_line : request -> string
val request_to_text : request -> string
val attribution_to_text : request -> string
val layer_totals_to_text : request list -> string

(** {2 State-at-cycle queries over the structural archive} *)

(** Domains holding mappings of [frame] at cycle [at] (Page_share /
    Page_unshare fold), sorted. *)
val frame_holders :
  Pm_journal.Journal.event list -> frame:int -> at:int -> int list

(** The instance handle bound at [path] at cycle [at] (Bind / Unbind /
    Interpose / Uninterpose fold). *)
val bound_at :
  Pm_journal.Journal.event list -> path:string -> at:int -> int option

(** The domain that owned the component loaded as [name] at cycle [at]
    (Install / Detach fold). *)
val owner_of :
  Pm_journal.Journal.event list -> name:string -> at:int -> int option

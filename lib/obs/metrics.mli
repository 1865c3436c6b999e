(** Metrics registry: counters, gauges and log2-bucketed cycle
    histograms, keyed by [(domain, name)].

    Histograms bucket by powers of two — O(1) update, fixed footprint —
    so percentiles resolve to the *floor of the bucket* holding the
    ranked value (factor-of-two resolution). Exact [min]/[max]/[sum] are
    kept alongside. *)

type t

val create : unit -> t

(** {2 Counters} *)

val incr : t -> domain:int -> string -> unit
val add : t -> domain:int -> string -> int -> unit
val counter : t -> domain:int -> string -> int

(** {2 Gauges} *)

val set_gauge : t -> domain:int -> string -> int -> unit
val gauge : t -> domain:int -> string -> int

(** {2 Histograms} *)

(** [observe t ~domain name v] records one sample (typically a cycle
    latency). *)
val observe : t -> domain:int -> string -> int -> unit

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;  (** log2-bucket floor of the median sample *)
  p90 : int;
  p99 : int;
}

val summary : t -> domain:int -> string -> summary option
val mean : summary -> float
val summary_to_text : summary -> string

(** [bucket_of v] is the histogram bucket index holding [v]: bucket 0 is
    [(-inf, 2)], bucket [b >= 1] is [[2^b, 2^(b+1))]. Exposed for
    tests. *)
val bucket_of : int -> int

val bucket_floor : int -> int

(** {2 Enumeration and export} *)

val counters : t -> (int * string * int) list
val gauges : t -> (int * string * int) list
val histograms : t -> (int * string * summary) list
val reset : t -> unit
val to_text : t -> string

(** JSON string escaping, shared by every hand-built JSON exporter. *)

(** [escape s] is [s] with quotes, backslashes and control characters
    escaped, ready to sit between double quotes in a JSON document. *)
val escape : string -> string

type key = int * string

type histo = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array; (* bucket b holds values v with bucket_of v = b *)
}

let bucket_count = 62 (* enough for any OCaml int on 64-bit *)

(* bucket 0 is [_, 2); bucket b >= 1 is [2^b, 2^(b+1)) *)
let bucket_of v =
  if v < 2 then 0
  else begin
    let rec go n b = if n < 2 then b else go (n lsr 1) (b + 1) in
    go v 0
  end

let bucket_floor b = if b = 0 then 0 else 1 lsl b

type t = {
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, int ref) Hashtbl.t;
  histos : (key, histo) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16; gauges = Hashtbl.create 8; histos = Hashtbl.create 8 }

let add t ~domain name n =
  let key = (domain, name) in
  match Hashtbl.find_opt t.counters key with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.counters key (ref n)

let incr t ~domain name = add t ~domain name 1

let counter t ~domain name =
  match Hashtbl.find_opt t.counters (domain, name) with Some r -> !r | None -> 0

let set_gauge t ~domain name v =
  let key = (domain, name) in
  match Hashtbl.find_opt t.gauges key with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges key (ref v)

let gauge t ~domain name =
  match Hashtbl.find_opt t.gauges (domain, name) with Some r -> !r | None -> 0

let observe t ~domain name v =
  let key = (domain, name) in
  let h =
    match Hashtbl.find_opt t.histos key with
    | Some h -> h
    | None ->
      let h =
        { count = 0; sum = 0; vmin = max_int; vmax = min_int;
          buckets = Array.make bucket_count 0 }
      in
      Hashtbl.add t.histos key h;
      h
  in
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  let b = min (bucket_of v) (bucket_count - 1) in
  h.buckets.(b) <- h.buckets.(b) + 1

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

(* percentile as the floor of the log2 bucket holding the rank-th value:
   deliberately coarse (factor-of-two resolution) in exchange for O(1)
   updates and a fixed footprint *)
let percentile (h : histo) p =
  if h.count = 0 then 0
  else begin
    let rank = max 1 ((p * h.count + 99) / 100) in
    let rec walk b cum =
      if b >= bucket_count then h.vmax
      else begin
        let cum = cum + h.buckets.(b) in
        if cum >= rank then bucket_floor b else walk (b + 1) cum
      end
    in
    walk 0 0
  end

let summary t ~domain name =
  match Hashtbl.find_opt t.histos (domain, name) with
  | None -> None
  | Some h ->
    Some
      { count = h.count; sum = h.sum; min = h.vmin; max = h.vmax;
        p50 = percentile h 50; p90 = percentile h 90; p99 = percentile h 99 }

let mean s = if s.count = 0 then 0. else float_of_int s.sum /. float_of_int s.count

let summary_to_text s =
  Printf.sprintf "count=%d mean=%.1f min=%d p50=%d p90=%d p99=%d max=%d" s.count
    (mean s) s.min s.p50 s.p90 s.p99 s.max

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let counters t =
  List.map (fun (d, n) -> (d, n, counter t ~domain:d n)) (sorted_keys t.counters)

let gauges t =
  List.map (fun (d, n) -> (d, n, gauge t ~domain:d n)) (sorted_keys t.gauges)

let histograms t =
  List.filter_map
    (fun (d, n) -> Option.map (fun s -> (d, n, s)) (summary t ~domain:d n))
    (sorted_keys t.histos)

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histos

let to_text t =
  let b = Buffer.create 256 in
  let section title lines =
    if lines <> [] then begin
      Buffer.add_string b (title ^ "\n");
      List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) lines
    end
  in
  section "counters"
    (List.map (fun (d, n, v) -> Printf.sprintf "dom %-2d %-28s %d" d n v) (counters t));
  section "gauges"
    (List.map (fun (d, n, v) -> Printf.sprintf "dom %-2d %-28s %d" d n v) (gauges t));
  section "histograms (cycles)"
    (List.map
       (fun (d, n, s) -> Printf.sprintf "dom %-2d %-28s %s" d n (summary_to_text s))
       (histograms t));
  Buffer.contents b

let to_json t =
  let entry (d, n, v) =
    Printf.sprintf "{\"domain\":%d,\"name\":\"%s\",\"value\":%d}" d (Pm_journal.Json.escape n) v
  in
  let histo_entry (d, n, s) =
    Printf.sprintf
      "{\"domain\":%d,\"name\":\"%s\",\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d}"
      d (Pm_journal.Json.escape n) s.count s.sum s.min s.max s.p50 s.p90 s.p99
  in
  Printf.sprintf "{\"counters\":[%s],\"gauges\":[%s],\"histograms\":[%s]}"
    (String.concat "," (List.map entry (counters t)))
    (String.concat "," (List.map entry (gauges t)))
    (String.concat "," (List.map histo_entry (histograms t)))

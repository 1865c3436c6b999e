(* The one interface every storage component exports — the contract that
   makes the stack compositional: anything speaking "block" can sit
   under a partition, a cache, a log, or a channel proxy, and anything
   can be interposed on the path by name.

   iface "block":
   - read(block:int) -> blob
   - write(block:int, data:blob) -> unit
   - flush() -> int        (blocks pushed down to durable state)
   - size() -> int         (capacity in blocks)
   - blocksize() -> int
   - stats() -> list int   (component-specific counters) *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Path = Pm_names.Path

let iface_name = "block"

(* the block size of the partition, cache and log layers: the store
   device's, which Kernel.boot attaches with 512-byte blocks *)
let block_size = 512

let fault msg = Error (Oerror.Fault msg)
let ( let* ) = Result.bind

(* Lower-layer resolution by name, re-bound when the target is revoked —
   the stack's driver idiom. Resolving by path (not by captured handle)
   is what makes every layer individually interposable: replace the name
   and the component above follows it on the next call. *)
type lower = {
  api : Api.t;
  dom : Domain.t;
  path : Path.t;
  mutable target : Instance.t option;
}

let make_lower api dom path =
  { api; dom; path = Path.of_string path; target = None }

let resolve l =
  match l.target with
  | Some t when not t.Instance.revoked -> Ok t
  | _ ->
    (match Api.bind l.api l.dom l.path with
    | Ok t ->
      l.target <- Some t;
      Ok t
    | Error e ->
      fault
        (Printf.sprintf "block: lower %s unresolvable (%s)"
           (Path.to_string l.path)
           (Pm_nucleus.Directory.bind_error_to_string e)))

let call l ctx meth args =
  let* t = resolve l in
  Invoke.call ctx t ~iface:iface_name ~meth args

let read l ctx block =
  match call l ctx "read" [ Value.Int block ] with
  | Ok (Value.Blob b) -> Ok b
  | Ok _ -> fault "block: read returned non-blob"
  | Error e -> Error e

let write l ctx block data =
  let* _ = call l ctx "write" [ Value.Int block; Value.Blob data ] in
  Ok ()

let flush l ctx =
  match call l ctx "flush" [] with
  | Ok (Value.Int n) -> Ok n
  | Ok _ -> fault "block: flush returned non-int"
  | Error e -> Error e

let int_query l ctx meth =
  match call l ctx meth [] with
  | Ok (Value.Int n) -> Ok n
  | Ok _ -> fault ("block: " ^ meth ^ " returned non-int")
  | Error e -> Error e

let size l ctx = int_query l ctx "size"
let blocksize l ctx = int_query l ctx "blocksize"

(* Build the six standard methods from component callbacks. *)
let methods ~read:read_f ~write:write_f ~flush:flush_f ~size:size_f
    ~blocksize:blocksize_f ~stats:stats_f =
  let int_result r = Result.map (fun n -> Value.Int n) r in
  Iface.make ~name:iface_name
    [
      Iface.fn1 ~name:"read" Iface.Int ~ret:Vtype.Tblob (fun ctx block ->
          Result.map (fun data -> Value.Blob data) (read_f ctx block));
      Iface.fn2 ~name:"write" Iface.Int Iface.Blob ~ret:Vtype.Tunit (fun ctx block data ->
          Result.map (fun () -> Value.Unit) (write_f ctx block data));
      Iface.fn0 ~name:"flush" ~ret:Vtype.Tint (fun ctx -> int_result (flush_f ctx));
      Iface.fn0 ~name:"size" ~ret:Vtype.Tint (fun ctx -> int_result (size_f ctx));
      Iface.fn0 ~name:"blocksize" ~ret:Vtype.Tint (fun _ ->
          Ok (Value.Int (blocksize_f ())));
      Iface.fn0 ~name:"stats" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
          Ok (Value.List (List.map (fun n -> Value.Int n) (stats_f ()))));
    ]

(* ------------------------------------------------------------------ *)
(* Causal-tracing spans: every storage layer brackets its entry points *)
(* with these. Plain journal stores, gated on Trace.enabled — zero     *)
(* simulated cycles either way, and zero events when tracing is off.   *)
(* ------------------------------------------------------------------ *)

module Trace = Pm_journal.Trace
module Journal = Pm_journal.Journal

let journal_of (api : Api.t) =
  Pm_obs.Obs.journal (Pm_machine.Clock.obs (Pm_machine.Machine.clock api.Api.machine))

let jot ?rid api ~kind ~info ~detail =
  let clock = Pm_machine.Machine.clock api.Api.machine in
  Journal.record ?rid (journal_of api) ~kind ~domain:0
    ~at:(Pm_machine.Clock.now clock) ~info ~detail

(* [traced_span api layer f] wraps one layer crossing of the current
   request in Span_enter/Span_exit events; the exit fires even when [f]
   fails, so span trees stay balanced on error paths. A traced wire
   parse inside [f] may leave another rid ambient, so the exit carries
   the enter's rid, as [Clock.span] does. *)
let traced_span api layer f =
  if not (Trace.enabled ()) then f ()
  else begin
    let rid = Trace.current () in
    jot api ~rid ~kind:Journal.Span_enter ~info:0 ~detail:layer;
    Fun.protect
      ~finally:(fun () -> jot api ~rid ~kind:Journal.Span_exit ~info:0 ~detail:layer)
      f
  end

(* Point annotation on the current request: cache hit/miss, log append,
   port demux. *)
let traced_note api ~info detail =
  if Trace.enabled () then jot api ~kind:Journal.Trace_note ~info ~detail

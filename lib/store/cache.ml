(* Write-back block cache: the stack's performance layer and its most
   interesting policy component.

   - Hits are served from domain memory: one [Call_ctx.access] charge of
     a block's bytes, no trip to the layers below (bench E19 asserts the
     gap against the raw device path).
   - Misses read through the lower layer and insert; when the cache is
     at capacity the least-recently-used block is evicted, writing it
     back first if dirty.
   - Writes dirty the cached copy only. [flush] pushes every dirty block
     down in ascending block order (determinism), journals a
     [Cache_flush] event and then forwards the flush to the lower layer
     so durability reaches the device.

   The composition linter insists a cache sits *above* its log or
   partition: a cache below a log would absorb the log's writes and
   silently break the log's durability story. *)

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Clock = Pm_machine.Clock
module Journal = Pm_journal.Journal
module Obs = Pm_obs.Obs
module Instance = Pm_obj.Instance
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx

let fault msg = Error (Oerror.Fault msg)
let ( let* ) = Result.bind

type line = { mutable data : bytes; mutable dirty : bool; mutable last_use : int }

type state = {
  api : Api.t;
  lower : Blockif.lower;
  capacity : int;
  lines : (int, line) Hashtbl.t;
  mutable stamp : int; (* logical LRU clock, bumped per touch *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

let touch st line =
  st.stamp <- st.stamp + 1;
  line.last_use <- st.stamp

let dirty_count st =
  Hashtbl.fold (fun _ l n -> if l.dirty then n + 1 else n) st.lines 0

(* Pick the least-recently-used block; ties (impossible: stamps are
   unique) and iteration order do not matter for the result. *)
let lru_victim st =
  Hashtbl.fold
    (fun block l acc ->
      match acc with
      | Some (_, best) when best.last_use <= l.last_use -> acc
      | _ -> Some (block, l))
    st.lines None

let writeback st ctx block line =
  let* () = Blockif.write st.lower ctx block line.data in
  line.dirty <- false;
  st.writebacks <- st.writebacks + 1;
  Ok ()

let evict_if_full st ctx =
  if Hashtbl.length st.lines < st.capacity then Ok ()
  else
    match lru_victim st with
    | None -> Ok ()
    | Some (block, line) ->
      let* () = if line.dirty then writeback st ctx block line else Ok () in
      Hashtbl.remove st.lines block;
      st.evictions <- st.evictions + 1;
      Ok ()

let lookup st ctx block =
  match Hashtbl.find_opt st.lines block with
  | Some line ->
    st.hits <- st.hits + 1;
    Blockif.traced_note st.api ~info:block "cache-hit";
    touch st line;
    Ok line
  | None ->
    st.misses <- st.misses + 1;
    Blockif.traced_note st.api ~info:block "cache-miss";
    let* data = Blockif.read st.lower ctx block in
    let* () = evict_if_full st ctx in
    let line = { data; dirty = false; last_use = 0 } in
    touch st line;
    Hashtbl.add st.lines block line;
    Ok line

let read_op st ctx block =
  let* line = lookup st ctx block in
  Call_ctx.access ctx Blockif.block_size;
  Ok (Bytes.copy line.data)

let write_op st ctx block data =
  if Bytes.length data > Blockif.block_size then fault "cache: write exceeds block size"
  else begin
    let padded = Bytes.make Blockif.block_size '\000' in
    Bytes.blit data 0 padded 0 (Bytes.length data);
    Call_ctx.access ctx Blockif.block_size;
    match Hashtbl.find_opt st.lines block with
    | Some line ->
      st.hits <- st.hits + 1;
      Blockif.traced_note st.api ~info:block "cache-hit";
      touch st line;
      line.data <- padded;
      line.dirty <- true;
      Ok ()
    | None ->
      st.misses <- st.misses + 1;
      Blockif.traced_note st.api ~info:block "cache-miss";
      let* () = evict_if_full st ctx in
      let line = { data = padded; dirty = true; last_use = 0 } in
      touch st line;
      Hashtbl.add st.lines block line;
      Ok ()
  end

let flush_op st ctx =
  let dirty =
    Hashtbl.fold (fun b l acc -> if l.dirty then (b, l) :: acc else acc) st.lines []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let* () =
    List.fold_left
      (fun acc (block, line) ->
        let* () = acc in
        writeback st ctx block line)
      (Ok ()) dirty
  in
  let n = List.length dirty in
  let clock = Pm_machine.Machine.clock st.api.Api.machine in
  Journal.record (Obs.journal (Clock.obs clock)) ~kind:Journal.Cache_flush
    ~domain:0 ~at:(Clock.now clock) ~info:n ~detail:"";
  Clock.count clock "cache_flush";
  let* _ = Blockif.flush st.lower ctx in
  Ok n

let create api dom ~name ~lower ~capacity () =
  if capacity <= 0 then invalid_arg "Cache.create: need capacity";
  let st =
    {
      api;
      lower = Blockif.make_lower api dom lower;
      capacity;
      lines = Hashtbl.create (2 * capacity);
      stamp = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      writebacks = 0;
    }
  in
  let iface =
    Blockif.methods
      ~read:(fun ctx block ->
        Blockif.traced_span api "cache" (fun () -> read_op st ctx block))
      ~write:(fun ctx block data ->
        Blockif.traced_span api "cache" (fun () -> write_op st ctx block data))
      ~flush:(fun ctx -> Blockif.traced_span api "cache" (fun () -> flush_op st ctx))
      (* size is the lower layer's: the cache holds [capacity] *lines*
         but stores no blocks of its own, so a layer above (the log's
         capacity computation, say) must see the real device geometry,
         not the line count. The line capacity is in stats. *)
      ~size:(fun ctx -> Blockif.size st.lower ctx)
      ~blocksize:(fun () -> Blockif.block_size)
      ~stats:(fun () ->
        [ st.hits; st.misses; st.evictions; st.writebacks; dirty_count st;
          st.capacity ])
  in
  let inst =
    Instance.create api.Api.registry ~class_name:"store.cache"
      ~domain:dom.Domain.id [ iface ]
  in
  ignore
    (Storereg.register ~machine:api.Api.machine ~name ~kind:Storereg.Cache ~lower
       ~instance:inst ~domain:dom.Domain.id
       ~dirty:(fun () -> dirty_count st)
       ());
  inst

module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Machine = Pm_machine.Machine
module Physmem = Pm_machine.Physmem
module Blkdev = Pm_machine.Blkdev
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx

type error =
  | Not_found of string
  | Exists of string
  | Not_a_directory of string
  | Is_a_directory of string
  | No_space
  | File_too_large
  | Directory_not_empty of string
  | Bad_path of string

let error_to_string = function
  | Not_found p -> Printf.sprintf "%s: not found" p
  | Exists p -> Printf.sprintf "%s: already exists" p
  | Not_a_directory p -> Printf.sprintf "%s: not a directory" p
  | Is_a_directory p -> Printf.sprintf "%s: is a directory" p
  | No_space -> "no space left on device"
  | File_too_large -> "file too large (12 direct blocks)"
  | Directory_not_empty p -> Printf.sprintf "%s: directory not empty" p
  | Bad_path p -> Printf.sprintf "%s: malformed path" p

let magic = "PMFS"
let direct_blocks = 12
let inode_size = 64
let dirent_size = 32
let max_name = 28

type inode = {
  mutable used : bool;
  mutable is_dir : bool;
  mutable size : int;
  blocks : int array; (* 0 = unallocated *)
}

type t = {
  api : Api.t;
  disk : Blkdev.t;
  block_size : int;
  total_blocks : int;
  inode_table_blocks : int;
  data_start : int;
  bitmap : Bytes.t; (* one byte per block; 1 = in use *)
  inodes : inode array;
  scratch : int; (* physical address of the block-IO bounce frame *)
}

(* --- block IO through the bounce frame ------------------------------- *)

let read_block t n =
  Blkdev.read_sync t.disk ~block:n ~phys_addr:t.scratch;
  let b = Bytes.create t.block_size in
  Physmem.read_bytes (Machine.phys t.api.Api.machine) t.scratch b 0 t.block_size;
  b

let write_block t n data =
  assert (Bytes.length data = t.block_size);
  Physmem.write_bytes (Machine.phys t.api.Api.machine) t.scratch data 0 t.block_size;
  Blkdev.write_sync t.disk ~block:n ~phys_addr:t.scratch

(* --- metadata (de)serialization --------------------------------------- *)

let superblock_bitmap_offset = 64

let write_meta t =
  (* superblock + bitmap *)
  let sb = Bytes.make t.block_size '\000' in
  Bytes.blit_string magic 0 sb 0 4;
  Wire.set32 sb 4 t.total_blocks;
  Wire.set32 sb 8 t.inode_table_blocks;
  Bytes.blit t.bitmap 0 sb superblock_bitmap_offset t.total_blocks;
  write_block t 0 sb;
  (* inode table *)
  let per_block = t.block_size / inode_size in
  for ib = 0 to t.inode_table_blocks - 1 do
    let blk = Bytes.make t.block_size '\000' in
    for j = 0 to per_block - 1 do
      let idx = (ib * per_block) + j in
      if idx < Array.length t.inodes then begin
        let ino = t.inodes.(idx) in
        let off = j * inode_size in
        Bytes.set blk off (if ino.used then '\001' else '\000');
        Bytes.set blk (off + 1) (if ino.is_dir then '\001' else '\000');
        Wire.set32 blk (off + 2) ino.size;
        Array.iteri (fun k b -> Wire.set32 blk (off + 6 + (k * 4)) b) ino.blocks
      end
    done;
    write_block t (1 + ib) blk
  done

let read_meta t =
  let sb = read_block t 0 in
  if not (String.equal (Bytes.sub_string sb 0 4) magic) then
    invalid_arg "Simplefs.mount: bad superblock magic";
  Bytes.blit sb superblock_bitmap_offset t.bitmap 0 t.total_blocks;
  let per_block = t.block_size / inode_size in
  for ib = 0 to t.inode_table_blocks - 1 do
    let blk = read_block t (1 + ib) in
    for j = 0 to per_block - 1 do
      let idx = (ib * per_block) + j in
      if idx < Array.length t.inodes then begin
        let off = j * inode_size in
        let ino = t.inodes.(idx) in
        ino.used <- Bytes.get blk off = '\001';
        ino.is_dir <- Bytes.get blk (off + 1) = '\001';
        ino.size <- Wire.get32 blk (off + 2);
        Array.iteri
          (fun k _ -> ino.blocks.(k) <- Wire.get32 blk (off + 6 + (k * 4)))
          ino.blocks
      end
    done
  done

let sync = write_meta

(* --- allocation -------------------------------------------------------- *)

let alloc_block t =
  let rec scan n =
    if n >= t.total_blocks then None
    else if Bytes.get t.bitmap n = '\000' then begin
      Bytes.set t.bitmap n '\001';
      Some n
    end
    else scan (n + 1)
  in
  scan t.data_start

let free_block t n =
  assert (n >= t.data_start && n < t.total_blocks);
  Bytes.set t.bitmap n '\000'

let free_blocks t =
  let free = ref 0 in
  for n = t.data_start to t.total_blocks - 1 do
    if Bytes.get t.bitmap n = '\000' then incr free
  done;
  !free

let alloc_inode t =
  let rec scan i =
    if i >= Array.length t.inodes then None
    else if not t.inodes.(i).used then begin
      let ino = t.inodes.(i) in
      ino.used <- true;
      ino.is_dir <- false;
      ino.size <- 0;
      Array.fill ino.blocks 0 direct_blocks 0;
      Some i
    end
    else scan (i + 1)
  in
  scan 0

(* --- directory entries --------------------------------------------------- *)

type dirent = { slot : int; d_inode : int; name : string }

(* iterate the used entries of a directory inode *)
let dir_entries t ino =
  let entries = ref [] in
  let count = ino.size / dirent_size in
  let per_block = t.block_size / dirent_size in
  let current_block = ref (-1) in
  let blk = ref Bytes.empty in
  for slot = 0 to count - 1 do
    let bi = slot / per_block in
    if bi <> !current_block then begin
      current_block := bi;
      blk := read_block t ino.blocks.(bi)
    end;
    let off = slot mod per_block * dirent_size in
    if Bytes.get !blk off = '\001' then begin
      let d_inode = Bytes.get_uint16_be !blk (off + 1) in
      let nlen = Char.code (Bytes.get !blk (off + 3)) in
      let name = Bytes.sub_string !blk (off + 4) nlen in
      entries := { slot; d_inode; name } :: !entries
    end
  done;
  List.rev !entries

let write_dirent t ino slot entry =
  let per_block = t.block_size / dirent_size in
  let bi = slot / per_block in
  let blk = read_block t ino.blocks.(bi) in
  let off = slot mod per_block * dirent_size in
  (match entry with
  | None -> Bytes.set blk off '\000'
  | Some (d_inode, name) ->
    Bytes.set blk off '\001';
    Bytes.set_uint16_be blk (off + 1) d_inode;
    Bytes.set blk (off + 3) (Char.chr (String.length name));
    Bytes.fill blk (off + 4) max_name '\000';
    Bytes.blit_string name 0 blk (off + 4) (String.length name));
  write_block t ino.blocks.(bi) blk

(* add an entry, reusing a free slot or growing the directory *)
let add_dirent t ino d_inode name =
  let count = ino.size / dirent_size in
  let per_block = t.block_size / dirent_size in
  (* look for a freed slot *)
  let used_slots = List.map (fun e -> e.slot) (dir_entries t ino) in
  let rec find_free slot =
    if slot >= count then None
    else if List.mem slot used_slots then find_free (slot + 1)
    else Some slot
  in
  match find_free 0 with
  | Some slot ->
    write_dirent t ino slot (Some (d_inode, name));
    Ok ()
  | None ->
    let slot = count in
    let bi = slot / per_block in
    if bi >= direct_blocks then Error File_too_large
    else begin
      let ensure_block =
        if ino.blocks.(bi) <> 0 then Ok ()
        else begin
          match alloc_block t with
          | None -> Error No_space
          | Some b ->
            write_block t b (Bytes.make t.block_size '\000');
            ino.blocks.(bi) <- b;
            Ok ()
        end
      in
      match ensure_block with
      | Error _ as e -> e
      | Ok () ->
        ino.size <- (slot + 1) * dirent_size;
        write_dirent t ino slot (Some (d_inode, name));
        Ok ()
    end

(* --- path resolution -------------------------------------------------------- *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then Error (Bad_path path)
  else if String.equal path "/" then Ok []
  else begin
    let segs = String.split_on_char '/' (String.sub path 1 (String.length path - 1)) in
    if
      List.for_all
        (fun s -> String.length s > 0 && String.length s <= max_name)
        segs
    then Ok segs
    else Error (Bad_path path)
  end

(* resolve to an inode index *)
let resolve t path =
  match split_path path with
  | Error e -> Error e
  | Ok segs ->
    let rec walk idx = function
      | [] -> Ok idx
      | seg :: rest ->
        let ino = t.inodes.(idx) in
        if not ino.is_dir then Error (Not_a_directory path)
        else begin
          match List.find_opt (fun e -> String.equal e.name seg) (dir_entries t ino) with
          | Some e -> walk e.d_inode rest
          | None -> Error (Not_found path)
        end
    in
    walk 0 segs

(* resolve the parent directory and final segment *)
let resolve_parent t path =
  match split_path path with
  | Error e -> Error e
  | Ok [] -> Error (Bad_path path)
  | Ok segs ->
    let rec split_last acc = function
      | [] -> assert false
      | [ last ] -> (List.rev acc, last)
      | s :: rest -> split_last (s :: acc) rest
    in
    let dirsegs, last = split_last [] segs in
    let dirpath = "/" ^ String.concat "/" dirsegs in
    (match resolve t dirpath with
    | Error e -> Error e
    | Ok idx ->
      if not t.inodes.(idx).is_dir then Error (Not_a_directory dirpath)
      else Ok (idx, last))

(* --- core operations ----------------------------------------------------------- *)

let charge_meta ctx = Call_ctx.work ctx 50

let make_node t ctx path ~is_dir =
  charge_meta ctx;
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (parent_idx, name) ->
    let parent = t.inodes.(parent_idx) in
    if List.exists (fun e -> String.equal e.name name) (dir_entries t parent) then
      Error (Exists path)
    else begin
      match alloc_inode t with
      | None -> Error No_space
      | Some idx ->
        t.inodes.(idx).is_dir <- is_dir;
        (match add_dirent t parent idx name with
        | Error e ->
          t.inodes.(idx).used <- false;
          Error e
        | Ok () ->
          sync t;
          Ok ())
    end

let mkdir t ctx path = make_node t ctx path ~is_dir:true
let create t ctx path = make_node t ctx path ~is_dir:false

let write t ctx path ~offset data =
  charge_meta ctx;
  if offset < 0 then Error (Bad_path "negative offset")
  else begin
    match resolve t path with
    | Error e -> Error e
    | Ok idx ->
      let ino = t.inodes.(idx) in
      if ino.is_dir then Error (Is_a_directory path)
      else begin
        let len = Bytes.length data in
        if offset + len > direct_blocks * t.block_size then Error File_too_large
        else begin
          Call_ctx.access ctx len;
          let pos = ref 0 in
          let err = ref None in
          while !pos < len && !err = None do
            let addr = offset + !pos in
            let bi = addr / t.block_size in
            let boff = addr mod t.block_size in
            if ino.blocks.(bi) = 0 then begin
              match alloc_block t with
              | None -> err := Some No_space
              | Some b ->
                write_block t b (Bytes.make t.block_size '\000');
                ino.blocks.(bi) <- b
            end;
            if !err = None then begin
              let chunk = min (len - !pos) (t.block_size - boff) in
              let blk = read_block t ino.blocks.(bi) in
              Bytes.blit data !pos blk boff chunk;
              write_block t ino.blocks.(bi) blk;
              pos := !pos + chunk
            end
          done;
          (match !err with
          | Some e ->
            ino.size <- max ino.size (offset + !pos);
            sync t;
            Error e
          | None ->
            ino.size <- max ino.size (offset + len);
            sync t;
            Ok len)
        end
      end
  end

let read t ctx path ~offset ~len =
  charge_meta ctx;
  if offset < 0 || len < 0 then Error (Bad_path "negative offset/len")
  else begin
    match resolve t path with
    | Error e -> Error e
    | Ok idx ->
      let ino = t.inodes.(idx) in
      if ino.is_dir then Error (Is_a_directory path)
      else begin
        let len = max 0 (min len (ino.size - offset)) in
        Call_ctx.access ctx len;
        let out = Bytes.create len in
        let pos = ref 0 in
        while !pos < len do
          let addr = offset + !pos in
          let bi = addr / t.block_size in
          let boff = addr mod t.block_size in
          let chunk = min (len - !pos) (t.block_size - boff) in
          if ino.blocks.(bi) = 0 then Bytes.fill out !pos chunk '\000'
          else begin
            let blk = read_block t ino.blocks.(bi) in
            Bytes.blit blk boff out !pos chunk
          end;
          pos := !pos + chunk
        done;
        Ok out
      end
  end

let remove t ctx path =
  charge_meta ctx;
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (parent_idx, name) ->
    let parent = t.inodes.(parent_idx) in
    (match List.find_opt (fun e -> String.equal e.name name) (dir_entries t parent) with
    | None -> Error (Not_found path)
    | Some entry ->
      let ino = t.inodes.(entry.d_inode) in
      if ino.is_dir && dir_entries t ino <> [] then Error (Directory_not_empty path)
      else begin
        Array.iteri
          (fun k b ->
            if b <> 0 then begin
              free_block t b;
              ino.blocks.(k) <- 0
            end)
          ino.blocks;
        ino.used <- false;
        ino.size <- 0;
        write_dirent t parent entry.slot None;
        sync t;
        Ok ()
      end)

let list t ctx path =
  charge_meta ctx;
  match resolve t path with
  | Error e -> Error e
  | Ok idx ->
    let ino = t.inodes.(idx) in
    if not ino.is_dir then Error (Not_a_directory path)
    else Ok (List.sort String.compare (List.map (fun e -> e.name) (dir_entries t ino)))

let stat t ctx path =
  charge_meta ctx;
  match resolve t path with
  | Error e -> Error e
  | Ok idx ->
    let ino = t.inodes.(idx) in
    Ok (ino.is_dir, ino.size)

(* --- construction --------------------------------------------------------------- *)

let make_t api ~disk =
  let machine = api.Api.machine in
  let block_size = Machine.page_size machine in
  if Blkdev.block_size disk <> block_size then
    invalid_arg "Simplefs: disk block size is not the page size";
  let total_blocks = Blkdev.blocks disk in
  if total_blocks > block_size - superblock_bitmap_offset then
    invalid_arg "Simplefs: disk too large for the superblock bitmap";
  let inode_table_blocks = 1 in
  let inode_count = inode_table_blocks * (block_size / inode_size) in
  let scratch_frame = Physmem.alloc (Machine.phys machine) in
  {
    api;
    disk;
    block_size;
    total_blocks;
    inode_table_blocks;
    data_start = 1 + inode_table_blocks;
    bitmap = Bytes.make total_blocks '\000';
    inodes =
      Array.init inode_count (fun _ ->
          { used = false; is_dir = false; size = 0; blocks = Array.make direct_blocks 0 });
    scratch = scratch_frame * block_size;
  }

let format api ~disk =
  let t = make_t api ~disk in
  (* reserve metadata blocks *)
  for n = 0 to t.data_start - 1 do
    Bytes.set t.bitmap n '\001'
  done;
  (* root directory: inode 0, no data yet *)
  t.inodes.(0).used <- true;
  t.inodes.(0).is_dir <- true;
  write_meta t;
  t

let mount api ~disk =
  let t = make_t api ~disk in
  read_meta t;
  t

(* --- object wrapper --------------------------------------------------------------- *)

let lift e = Error (Oerror.Fault (error_to_string e))

let instance api dom t =
  let lift_map f = function Ok v -> Ok (f v) | Error e -> lift e in
  let str1 name f =
    Iface.fn1 ~name Iface.Str ~ret:Vtype.Tunit (fun ctx p ->
        lift_map (fun () -> Value.Unit) (f t ctx p))
  in
  let iface =
    Iface.make ~name:"fs"
      [
        str1 "mkdir" mkdir;
        str1 "create" create;
        Iface.fn3 ~name:"write" Iface.Str Iface.Int Iface.Blob ~ret:Vtype.Tint
          (fun ctx p offset data ->
            lift_map (fun n -> Value.Int n) (write t ctx p ~offset data));
        Iface.fn3 ~name:"read" Iface.Str Iface.Int Iface.Int ~ret:Vtype.Tblob
          (fun ctx p offset len ->
            lift_map (fun b -> Value.Blob b) (read t ctx p ~offset ~len));
        str1 "remove" remove;
        Iface.fn1 ~name:"list" Iface.Str ~ret:(Vtype.Tlist Vtype.Tstr) (fun ctx p ->
            lift_map
              (fun names -> Value.List (List.map (fun n -> Value.Str n) names))
              (list t ctx p));
        Iface.fn1 ~name:"stat" Iface.Str ~ret:(Vtype.Tpair (Vtype.Tint, Vtype.Tint))
          (fun ctx p ->
            lift_map
              (fun (is_dir, size) ->
                Value.Pair (Value.Int (if is_dir then 1 else 0), Value.Int size))
              (stat t ctx p));
        Iface.fn0 ~name:"sync" ~ret:Vtype.Tunit (fun _ ->
            sync t;
            Ok Value.Unit);
      ]
  in
  Instance.create api.Api.registry ~class_name:"toolbox.simplefs" ~domain:dom.Domain.id
    [ iface ]

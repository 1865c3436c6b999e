type frame = { data : Bytes.t; mutable refcount : int }

exception Out_of_frames

type t = {
  page_size : int;
  total : int;
  frames : frame option array;
  mutable free : int list;
  mutable free_count : int;
}

let create ~frames ~page_size =
  if frames <= 0 || page_size <= 0 then invalid_arg "Physmem.create";
  {
    page_size;
    total = frames;
    frames = Array.make frames None;
    free = List.init frames (fun i -> i);
    free_count = frames;
  }

let page_size t = t.page_size
let total_frames t = t.total
let free_frames t = t.free_count

let alloc t =
  match t.free with
  | [] -> raise Out_of_frames
  | f :: rest ->
    t.free <- rest;
    t.free_count <- t.free_count - 1;
    t.frames.(f) <- Some { data = Bytes.make t.page_size '\000'; refcount = 1 };
    f

let frame_exn t f =
  if f < 0 || f >= t.total then invalid_arg "Physmem: frame out of range";
  match t.frames.(f) with
  | None -> invalid_arg "Physmem: frame not allocated"
  | Some fr -> fr

let ref_frame t f =
  let fr = frame_exn t f in
  fr.refcount <- fr.refcount + 1

let release t f =
  let fr = frame_exn t f in
  fr.refcount <- fr.refcount - 1;
  if fr.refcount = 0 then begin
    t.frames.(f) <- None;
    t.free <- f :: t.free;
    t.free_count <- t.free_count + 1
  end

let is_allocated t f = f >= 0 && f < t.total && t.frames.(f) <> None

(* the frame holding [addr]; no tuple, so word and byte access allocate
   nothing *)
let frame_at t addr =
  if addr < 0 then invalid_arg "Physmem: negative address";
  frame_exn t (addr / t.page_size)

let read8 t addr =
  Char.code (Bytes.get (frame_at t addr).data (addr mod t.page_size))

let write8 t addr v =
  Bytes.set (frame_at t addr).data (addr mod t.page_size)
    (Char.unsafe_chr (v land 0xff))

(* a word inside one frame is one load or store; a frame-straddling word
   goes byte by byte, so a write reaching an unallocated second frame
   has written the first frame's bytes when it raises *)
let read32 t addr =
  let data = (frame_at t addr).data and off = addr mod t.page_size in
  if off <= t.page_size - 4 then
    Int32.to_int (Bytes.get_int32_le data off) land 0xffff_ffff
  else
    read8 t addr
    lor (read8 t (addr + 1) lsl 8)
    lor (read8 t (addr + 2) lsl 16)
    lor (read8 t (addr + 3) lsl 24)

let write32 t addr v =
  let data = (frame_at t addr).data and off = addr mod t.page_size in
  if off <= t.page_size - 4 then Bytes.set_int32_le data off (Int32.of_int v)
  else begin
    write8 t addr v;
    write8 t (addr + 1) (v lsr 8);
    write8 t (addr + 2) (v lsr 16);
    write8 t (addr + 3) (v lsr 24)
  end

(* One blit per frame the range touches, in address order: a copy that
   reaches an unallocated frame has done the frames before it when it
   raises. A top-level loop, so that a copy allocates no closure. *)
let rec blit_from t ~to_phys addr buf off len d =
  if d < len then begin
    let a = addr + d in
    let data = (frame_at t a).data and o = a mod t.page_size in
    let n = min (len - d) (t.page_size - o) in
    if to_phys then Bytes.blit buf (off + d) data o n
    else Bytes.blit data o buf (off + d) n;
    blit_from t ~to_phys addr buf off len (d + n)
  end

let blit t ~to_phys addr buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Physmem: buffer range";
  blit_from t ~to_phys addr buf off len 0

let read_bytes t addr buf off len = blit t ~to_phys:false addr buf off len
let write_bytes t addr buf off len = blit t ~to_phys:true addr buf off len

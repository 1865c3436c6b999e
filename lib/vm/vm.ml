module Clock = Pm_machine.Clock
module Call_ctx = Pm_obj.Call_ctx

type reg = int

type instr =
  | Const of reg * int
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Div of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Shl of reg * reg * int
  | Shr of reg * reg * int
  | Load8 of reg * reg * int
  | Store8 of reg * reg * int
  | Jmp of int
  | Jz of reg * int
  | Jnz of reg * int
  | Jlt of reg * reg * int
  | Ret of reg

type program = instr array

type mem = { size : int; read8 : int -> int; write8 : int -> int -> unit }

let mem_of_bytes b =
  {
    size = Bytes.length b;
    read8 = (fun off -> Char.code (Bytes.get b off));
    write8 = (fun off v -> Bytes.set b off (Char.chr (v land 0xff)));
  }

type outcome = Returned of int | Wild_access of int | Vm_fault of string

exception Wild of int
exception Fault of string

let nregs = 8

let run (ctx : Call_ctx.t) ~mem ?(fuel = 10_000) (program : program) =
  let regs = Array.make nregs 0 in
  regs.(1) <- mem.size;
  let clock = ctx.Call_ctx.clock in
  let n = Array.length program in
  let checked_read off =
    Call_ctx.access ctx 1;
    if off < 0 || off >= mem.size then raise (Wild off);
    mem.read8 off
  in
  let checked_write off v =
    Call_ctx.access ctx 1;
    if off < 0 || off >= mem.size then raise (Wild off);
    mem.write8 off v
  in
  let jump_target target =
    if target < 0 || target >= n then raise (Fault "jump out of program") else target
  in
  let rec step pc remaining =
    if remaining = 0 then raise (Fault "out of fuel");
    if pc < 0 || pc >= n then raise (Fault "fell off the program");
    Clock.advance clock 1;
    match program.(pc) with
    | Const (rd, imm) ->
      regs.(rd) <- imm;
      step (pc + 1) (remaining - 1)
    | Mov (rd, rs) ->
      regs.(rd) <- regs.(rs);
      step (pc + 1) (remaining - 1)
    | Add (rd, a, b) ->
      regs.(rd) <- regs.(a) + regs.(b);
      step (pc + 1) (remaining - 1)
    | Sub (rd, a, b) ->
      regs.(rd) <- regs.(a) - regs.(b);
      step (pc + 1) (remaining - 1)
    | Mul (rd, a, b) ->
      regs.(rd) <- regs.(a) * regs.(b);
      step (pc + 1) (remaining - 1)
    | Div (rd, a, b) ->
      if regs.(b) = 0 then raise (Fault "division by zero");
      regs.(rd) <- regs.(a) / regs.(b);
      step (pc + 1) (remaining - 1)
    | And (rd, a, b) ->
      regs.(rd) <- regs.(a) land regs.(b);
      step (pc + 1) (remaining - 1)
    | Or (rd, a, b) ->
      regs.(rd) <- regs.(a) lor regs.(b);
      step (pc + 1) (remaining - 1)
    | Xor (rd, a, b) ->
      regs.(rd) <- regs.(a) lxor regs.(b);
      step (pc + 1) (remaining - 1)
    | Shl (rd, a, k) ->
      regs.(rd) <- regs.(a) lsl (min 62 (max 0 k));
      step (pc + 1) (remaining - 1)
    | Shr (rd, a, k) ->
      regs.(rd) <- regs.(a) lsr (min 62 (max 0 k));
      step (pc + 1) (remaining - 1)
    | Load8 (rd, rs, imm) ->
      regs.(rd) <- checked_read (regs.(rs) + imm);
      step (pc + 1) (remaining - 1)
    | Store8 (rs, ra, imm) ->
      checked_write (regs.(ra) + imm) regs.(rs);
      step (pc + 1) (remaining - 1)
    | Jmp target -> step (jump_target target) (remaining - 1)
    | Jz (r, target) ->
      if regs.(r) = 0 then step (jump_target target) (remaining - 1)
      else step (pc + 1) (remaining - 1)
    | Jnz (r, target) ->
      if regs.(r) <> 0 then step (jump_target target) (remaining - 1)
      else step (pc + 1) (remaining - 1)
    | Jlt (a, b, target) ->
      if regs.(a) < regs.(b) then step (jump_target target) (remaining - 1)
      else step (pc + 1) (remaining - 1)
    | Ret r -> regs.(r)
  in
  if n = 0 then Vm_fault "empty program"
  else begin
    match step 0 fuel with
    | v -> Returned v
    | exception Wild off ->
      Clock.bump clock Clock.Vm_wild_access;
      Wild_access off
    | exception Fault msg ->
      Clock.bump clock Clock.Vm_fault;
      Vm_fault msg
  end

(* --- encoding: 8 bytes per instruction ------------------------------- *)

let opcode = function
  | Const _ -> 1
  | Mov _ -> 2
  | Add _ -> 3
  | Sub _ -> 4
  | Mul _ -> 5
  | Div _ -> 6
  | And _ -> 7
  | Or _ -> 8
  | Xor _ -> 9
  | Shl _ -> 10
  | Shr _ -> 11
  | Load8 _ -> 12
  | Store8 _ -> 13
  | Jmp _ -> 14
  | Jz _ -> 15
  | Jnz _ -> 16
  | Jlt _ -> 17
  | Ret _ -> 18

let fields = function
  | Const (rd, imm) -> (rd, 0, 0, imm)
  | Mov (rd, rs) -> (rd, rs, 0, 0)
  | Add (rd, a, b) | Sub (rd, a, b) | Mul (rd, a, b) | Div (rd, a, b)
  | And (rd, a, b) | Or (rd, a, b) | Xor (rd, a, b) ->
    (rd, a, b, 0)
  | Shl (rd, a, k) | Shr (rd, a, k) -> (rd, a, 0, k)
  | Load8 (rd, rs, imm) -> (rd, rs, 0, imm)
  | Store8 (rs, ra, imm) -> (rs, ra, 0, imm)
  | Jmp t -> (0, 0, 0, t)
  | Jz (r, t) -> (r, 0, 0, t)
  | Jnz (r, t) -> (r, 0, 0, t)
  | Jlt (a, b, t) -> (a, b, 0, t)
  | Ret r -> (r, 0, 0, 0)

let encode program =
  let buf = Buffer.create (Array.length program * 8) in
  Array.iter
    (fun ins ->
      let rd, a, b, imm = fields ins in
      Buffer.add_char buf (Char.chr (opcode ins));
      Buffer.add_char buf (Char.chr rd);
      Buffer.add_char buf (Char.chr a);
      Buffer.add_char buf (Char.chr b);
      (* signed 32-bit big-endian immediate *)
      let imm32 = imm land 0xFFFFFFFF in
      Buffer.add_char buf (Char.chr ((imm32 lsr 24) land 0xff));
      Buffer.add_char buf (Char.chr ((imm32 lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((imm32 lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (imm32 land 0xff)))
    program;
  Buffer.contents buf

let decode s =
  if String.length s mod 8 <> 0 then Error "object code length not a multiple of 8"
  else begin
    let n = String.length s / 8 in
    let reg_ok r = r >= 0 && r < nregs in
    let result = ref (Ok ()) in
    let prog =
      Array.init n (fun idx ->
          let at k = Char.code s.[(idx * 8) + k] in
          let rd = at 1 and a = at 2 and b = at 3 in
          let imm32 = (at 4 lsl 24) lor (at 5 lsl 16) lor (at 6 lsl 8) lor at 7 in
          (* sign-extend from 32 bits *)
          let imm = if imm32 land 0x80000000 <> 0 then imm32 - (1 lsl 32) else imm32 in
          let bad msg =
            if !result = Ok () then result := Error msg;
            Ret 0
          in
          if not (reg_ok rd && reg_ok a && reg_ok b) then bad "bad register"
          else begin
            match at 0 with
            | 1 -> Const (rd, imm)
            | 2 -> Mov (rd, a)
            | 3 -> Add (rd, a, b)
            | 4 -> Sub (rd, a, b)
            | 5 -> Mul (rd, a, b)
            | 6 -> Div (rd, a, b)
            | 7 -> And (rd, a, b)
            | 8 -> Or (rd, a, b)
            | 9 -> Xor (rd, a, b)
            | 10 -> Shl (rd, a, imm)
            | 11 -> Shr (rd, a, imm)
            | 12 -> Load8 (rd, a, imm)
            | 13 -> Store8 (rd, a, imm)
            | 14 -> Jmp imm
            | 15 -> Jz (rd, imm)
            | 16 -> Jnz (rd, imm)
            | 17 -> Jlt (rd, a, imm)
            | 18 -> Ret rd
            | op -> bad (Printf.sprintf "bad opcode %d" op)
          end)
    in
    match !result with Ok () -> Ok prog | Error e -> Error e
  end

let instr_count = Array.length

let pp_instr fmt ins =
  let s =
    match ins with
    | Const (rd, imm) -> Printf.sprintf "const r%d, %d" rd imm
    | Mov (rd, rs) -> Printf.sprintf "mov r%d, r%d" rd rs
    | Add (rd, a, b) -> Printf.sprintf "add r%d, r%d, r%d" rd a b
    | Sub (rd, a, b) -> Printf.sprintf "sub r%d, r%d, r%d" rd a b
    | Mul (rd, a, b) -> Printf.sprintf "mul r%d, r%d, r%d" rd a b
    | Div (rd, a, b) -> Printf.sprintf "div r%d, r%d, r%d" rd a b
    | And (rd, a, b) -> Printf.sprintf "and r%d, r%d, r%d" rd a b
    | Or (rd, a, b) -> Printf.sprintf "or r%d, r%d, r%d" rd a b
    | Xor (rd, a, b) -> Printf.sprintf "xor r%d, r%d, r%d" rd a b
    | Shl (rd, a, k) -> Printf.sprintf "shl r%d, r%d, %d" rd a k
    | Shr (rd, a, k) -> Printf.sprintf "shr r%d, r%d, %d" rd a k
    | Load8 (rd, rs, imm) -> Printf.sprintf "ld8 r%d, [r%d+%d]" rd rs imm
    | Store8 (rs, ra, imm) -> Printf.sprintf "st8 [r%d+%d], r%d" ra imm rs
    | Jmp t -> Printf.sprintf "jmp %d" t
    | Jz (r, t) -> Printf.sprintf "jz r%d, %d" r t
    | Jnz (r, t) -> Printf.sprintf "jnz r%d, %d" r t
    | Jlt (a, b, t) -> Printf.sprintf "jlt r%d, r%d, %d" a b t
    | Ret r -> Printf.sprintf "ret r%d" r
  in
  Format.pp_print_string fmt s

let pp_program fmt program =
  Array.iteri (fun idx ins -> Format.fprintf fmt "%3d: %a@." idx pp_instr ins) program

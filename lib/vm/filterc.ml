type binop =
  | Add
  | Sub
  | Mul
  | Band
  | Bxor
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Andalso
  | Orelse

type expr =
  | Lit of int
  | Len
  | Byte of expr
  | Word16 of expr
  | Bin of binop * expr * expr
  | If of expr * expr * expr
  | Idx
  | For of expr * expr * expr

exception Too_deep
exception Bad_loop of string

(* expression results live on a register stack r2..r5; r0 = 0 and r1 =
   packet length per the VM convention, r6/r7 stay free for the SFI
   rewriter *)
let reg_of_depth depth =
  if depth > 3 then raise Too_deep;
  2 + depth

(* [gen e ~idx ~depth ~pos] emits code leaving the value in
   [reg_of_depth depth]; [pos] is the absolute index of the first
   emitted instruction, needed because jump targets are absolute; [idx]
   is the register holding the loop index when inside a [For] body *)
let rec gen e ~idx ~depth ~pos =
  let rd = reg_of_depth depth in
  match e with
  | Lit n -> [ Vm.Const (rd, n) ]
  | Len -> [ Vm.Mov (rd, 1) ]
  | Idx -> (
    match idx with
    | Some r -> [ Vm.Mov (rd, r) ]
    | None -> raise (Bad_loop "idx is only meaningful inside a sum body"))
  | For (lo, hi, body) ->
    (* sum of [body] over the index range [lo, hi). The loop owns the
       whole register stack: acc in r2, index in r3, limit in r4, body
       results in r5 — so it must be outermost (depth 0) and cannot
       nest. The closing Jlt is the one backward jump the compiler
       emits; its shape (single constant-step Add on the index, Fin/Len
       limit) is exactly what the verifier's counted-loop analysis
       admits, and the step constant is rematerialized right before the
       index Add so the abstract step is the exact interval [1,1] even
       though the body also uses r5. *)
    if depth > 0 then
      raise (Bad_loop "sum loops must be outermost (combine results after the loop)");
    if idx <> None then raise (Bad_loop "sum loops do not nest");
    let lo_c = gen lo ~idx ~depth:1 ~pos in
    let p1 = pos + List.length lo_c in
    let hi_c = gen hi ~idx ~depth:2 ~pos:p1 in
    let p2 = p1 + List.length hi_c in
    let body_start = p2 + 3 in
    let body_c = gen body ~idx:(Some 3) ~depth:3 ~pos:body_start in
    let pb = body_start + List.length body_c in
    let p_end = pb + 4 in
    lo_c @ hi_c
    @ [ Vm.Const (2, 0) (* acc *); Vm.Jlt (3, 4, body_start) (* pre-guard *);
        Vm.Jmp p_end ]
    @ body_c
    @ [ Vm.Add (2, 2, 5); Vm.Const (5, 1); Vm.Add (3, 3, 5);
        Vm.Jlt (3, 4, body_start) ]
  | Byte idx_e ->
    let code = gen idx_e ~idx ~depth ~pos in
    let p = pos + List.length code in
    (* bounds-bracketed load: out-of-range (either side) yields 0 *)
    code
    @ [ Vm.Jlt (rd, 0, p + 2) (* negative -> zero *);
        Vm.Jlt (rd, 1, p + 4) (* in range -> load *);
        Vm.Const (rd, 0); Vm.Jmp (p + 5); Vm.Load8 (rd, rd, 0) ]
  | Word16 idx_e ->
    (* two checked byte reads; the source language has no effects, so
       duplicating [idx_e] is only a (visible, honest) cost *)
    gen
      (Bin (Add, Bin (Mul, Byte idx_e, Lit 256), Byte (Bin (Add, idx_e, Lit 1))))
      ~idx ~depth ~pos
  | Bin (Andalso, l, r) ->
    gen (Bin (Band, Bin (Ne, l, Lit 0), Bin (Ne, r, Lit 0))) ~idx ~depth ~pos
  | Bin (Orelse, l, r) ->
    gen
      (Bin (Ne, Bin (Add, Bin (Ne, l, Lit 0), Bin (Ne, r, Lit 0)), Lit 0))
      ~idx ~depth ~pos
  | Bin (op, l, r) ->
    let lc = gen l ~idx ~depth ~pos in
    let rdepth = depth + 1 in
    let rr = reg_of_depth rdepth in
    let rc = gen r ~idx ~depth:rdepth ~pos:(pos + List.length lc) in
    let p = pos + List.length lc + List.length rc in
    let arith mk = lc @ rc @ [ mk ] in
    let bool_block ~jump ~if_true ~if_false =
      (* [jump p'] tests the condition and jumps to the "true" arm *)
      lc @ rc
      @ [ jump (p + 3); Vm.Const (rd, if_false); Vm.Jmp (p + 4);
          Vm.Const (rd, if_true) ]
    in
    (match op with
    | Add -> arith (Vm.Add (rd, rd, rr))
    | Sub -> arith (Vm.Sub (rd, rd, rr))
    | Mul -> arith (Vm.Mul (rd, rd, rr))
    | Band -> arith (Vm.And (rd, rd, rr))
    | Bxor -> arith (Vm.Xor (rd, rd, rr))
    | Eq ->
      (* sub + test-zero *)
      lc @ rc
      @ [ Vm.Sub (rd, rd, rr); Vm.Jz (rd, p + 4); Vm.Const (rd, 0);
          Vm.Jmp (p + 5); Vm.Const (rd, 1) ]
    | Ne ->
      lc @ rc
      @ [ Vm.Sub (rd, rd, rr); Vm.Jz (rd, p + 4); Vm.Const (rd, 1);
          Vm.Jmp (p + 5); Vm.Const (rd, 0) ]
    | Lt -> bool_block ~jump:(fun t -> Vm.Jlt (rd, rr, t)) ~if_true:1 ~if_false:0
    | Ge -> bool_block ~jump:(fun t -> Vm.Jlt (rd, rr, t)) ~if_true:0 ~if_false:1
    | Gt -> bool_block ~jump:(fun t -> Vm.Jlt (rr, rd, t)) ~if_true:1 ~if_false:0
    | Le -> bool_block ~jump:(fun t -> Vm.Jlt (rr, rd, t)) ~if_true:0 ~if_false:1
    | Andalso | Orelse -> assert false (* desugared above *))
  | If (c, t, e) ->
    let cc = gen c ~idx ~depth ~pos in
    let pos_t = pos + List.length cc + 1 in
    let tc = gen t ~idx ~depth ~pos:pos_t in
    let pos_e = pos_t + List.length tc + 1 in
    let ec = gen e ~idx ~depth ~pos:pos_e in
    let pos_end = pos_e + List.length ec in
    cc @ [ Vm.Jz (rd, pos_e) ] @ tc @ [ Vm.Jmp pos_end ] @ ec

let compile e =
  match gen e ~idx:None ~depth:0 ~pos:0 with
  | code -> Ok (Array.of_list (code @ [ Vm.Ret 2 ]))
  | exception Too_deep -> Error "expression nests too deeply for the register stack"
  | exception Bad_loop msg -> Error msg

(* --- concrete syntax -------------------------------------------------- *)

type token =
  | TInt of int
  | TLen
  | TByte
  | TWord
  | TSum
  | TIdx
  | TLbrack
  | TRbrack
  | TLparen
  | TRparen
  | TOp of string

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let err = ref None in
  while !i < n && !err = None do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      toks := TInt (int_of_string (String.sub s !i (!j - !i))) :: !toks;
      i := !j
    end
    else if c >= 'a' && c <= 'z' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= 'a' && s.[!j] <= 'z' do
        incr j
      done;
      (match String.sub s !i (!j - !i) with
      | "len" -> toks := TLen :: !toks
      | "byte" -> toks := TByte :: !toks
      | "word" -> toks := TWord :: !toks
      | "sum" -> toks := TSum :: !toks
      | "idx" -> toks := TIdx :: !toks
      | w -> err := Some (Printf.sprintf "unknown keyword %S" w));
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | ">=" | "&&" | "||" | ".." ->
        toks := TOp two :: !toks;
        i := !i + 2
      | _ ->
        (match c with
        | '[' -> toks := TLbrack :: !toks
        | ']' -> toks := TRbrack :: !toks
        | '(' -> toks := TLparen :: !toks
        | ')' -> toks := TRparen :: !toks
        | '+' | '-' | '*' | '&' | '^' | '<' | '>' ->
          toks := TOp (String.make 1 c) :: !toks
        | _ -> err := Some (Printf.sprintf "unexpected character %C" c));
        incr i
    end
  done;
  match !err with Some e -> Error e | None -> Ok (List.rev !toks)

exception Parse_error of string

let parse s =
  match tokenize s with
  | Error e -> Error e
  | Ok toks ->
    let stream = ref toks in
    let peek () = match !stream with [] -> None | t :: _ -> Some t in
    let advance () = match !stream with [] -> () | _ :: rest -> stream := rest in
    let expect t what =
      match peek () with
      | Some t' when t' = t -> advance ()
      | _ -> raise (Parse_error ("expected " ^ what))
    in
    let rec p_or () =
      let l = p_and () in
      match peek () with
      | Some (TOp "||") ->
        advance ();
        Bin (Orelse, l, p_or ())
      | _ -> l
    and p_and () =
      let l = p_cmp () in
      match peek () with
      | Some (TOp "&&") ->
        advance ();
        Bin (Andalso, l, p_and ())
      | _ -> l
    and p_cmp () =
      let l = p_sum () in
      match peek () with
      | Some (TOp (("==" | "!=" | "<" | "<=" | ">" | ">=") as op)) ->
        advance ();
        let r = p_sum () in
        let b =
          match op with
          | "==" -> Eq
          | "!=" -> Ne
          | "<" -> Lt
          | "<=" -> Le
          | ">" -> Gt
          | _ -> Ge
        in
        Bin (b, l, r)
      | _ -> l
    and p_sum () =
      let rec loop acc =
        match peek () with
        | Some (TOp "+") ->
          advance ();
          loop (Bin (Add, acc, p_prod ()))
        | Some (TOp "-") ->
          advance ();
          loop (Bin (Sub, acc, p_prod ()))
        | _ -> acc
      in
      loop (p_prod ())
    and p_prod () =
      let rec loop acc =
        match peek () with
        | Some (TOp "*") ->
          advance ();
          loop (Bin (Mul, acc, p_atom ()))
        | Some (TOp "&") ->
          advance ();
          loop (Bin (Band, acc, p_atom ()))
        | Some (TOp "^") ->
          advance ();
          loop (Bin (Bxor, acc, p_atom ()))
        | _ -> acc
      in
      loop (p_atom ())
    and p_atom () =
      match peek () with
      | Some (TInt n) ->
        advance ();
        Lit n
      | Some TLen ->
        advance ();
        Len
      | Some TByte ->
        advance ();
        expect TLbrack "'['";
        let e = p_or () in
        expect TRbrack "']'";
        Byte e
      | Some TWord ->
        advance ();
        expect TLbrack "'['";
        let e = p_or () in
        expect TRbrack "']'";
        Word16 e
      | Some TIdx ->
        advance ();
        Idx
      | Some TSum ->
        (* sum[ lo .. hi ]( body ) — body sees the index as [idx] *)
        advance ();
        expect TLbrack "'['";
        let lo = p_or () in
        expect (TOp "..") "'..'";
        let hi = p_or () in
        expect TRbrack "']'";
        expect TLparen "'('";
        let body = p_or () in
        expect TRparen "')'";
        For (lo, hi, body)
      | Some TLparen ->
        advance ();
        let e = p_or () in
        expect TRparen "')'";
        e
      | _ -> raise (Parse_error "expected an expression")
    in
    (match p_or () with
    | e -> if !stream = [] then Ok e else Error "trailing tokens"
    | exception Parse_error m -> Error m)

let compile_string s = Result.bind (parse s) compile

let certifying_policy ~compiled (m : Pm_secure.Meta.t) =
  if Hashtbl.mem compiled m.Pm_secure.Meta.name then Pm_secure.Authority.Accept
  else Pm_secure.Authority.Cannot_decide

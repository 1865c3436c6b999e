(** The trusted packet-filter compiler.

    SPIN's story, made concrete: "It is straightforward to incorporate
    this technique in our certification system by delegating the
    certification authority to a trusted compiler for that language.
    Everything compiled by that compiler would then be automatically
    certified and safe to run in the kernel protection domain." (§5)

    This compiler's source language can only read packet bytes, and the
    compiler brackets every access with compiled-in bounds checks
    (out-of-range reads yield 0), so its output is safe by construction:
    no run-time sandbox needed. A certification delegate built from
    {!certifying_policy} accepts exactly the components whose object code
    this compiler produced.

    Filters return an integer; non-zero means accept the packet.

    Concrete syntax (for the CLI and examples):
    {v
      expr := or-expr
      or   := and ("||" and)*
      and  := cmp ("&&" cmp)*
      cmp  := sum (("=="|"!="|"<"|"<="|">"|">=") sum)?
      sum  := prod (("+"|"-") prod)*
      prod := atom (("*"|"&"|"^") atom)*
      atom := int | "len" | "idx" | "byte[" expr "]" | "word[" expr "]"
            | "sum[" expr ".." expr "](" expr ")" | "(" expr ")"
    v}

    [sum[lo .. hi](body)] sums [body] over the index range [\[lo, hi)],
    with [idx] naming the current index inside the body; it compiles to
    a counted loop with a backward jump whose shape the verifier's
    loop-bound analysis admits, so scanning filters still earn the
    zero-per-run [Verified] placement. The loop owns the register
    stack, so it must be the outermost expression on its operand path
    (combine sums after the loop, not inside one) and bodies are
    limited to leaf-depth expressions like [byte\[idx\]]. *)

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
  | Len  (** packet length *)
  | Byte of expr  (** packet byte at a computed offset; 0 when out of range *)
  | Word16 of expr  (** big-endian 16-bit read (two checked byte reads) *)
  | Bin of binop * expr * expr
  | If of expr * expr * expr
  | Idx  (** the loop index; only meaningful inside a [For] body *)
  | For of expr * expr * expr
      (** [For (lo, hi, body)]: sum of [body] over index in [\[lo, hi)] *)

(** [compile e] emits bytecode using only registers r0–r5 (leaving the
    SFI rewriter's reserved registers untouched — so the same program can
    be run raw-certified or sandboxed for comparison). [Error] when the
    expression nests deeper than the 4-slot register stack, or when a
    [For] is not outermost / an [Idx] appears outside a body. *)
val compile : expr -> (Vm.program, string) result

(** [parse s] reads the concrete syntax. *)
val parse : string -> (expr, string) result

(** [compile_string s] = parse + compile. *)
val compile_string : string -> (Vm.program, string) result

(** [certifying_policy ~compiled] is a certification-delegate policy that
    accepts exactly the component names in [compiled] (the compiler's
    build record): the trusted-compiler delegate of §5. *)
val certifying_policy :
  compiled:(string, unit) Hashtbl.t -> Pm_secure.Meta.t -> Pm_secure.Authority.verdict

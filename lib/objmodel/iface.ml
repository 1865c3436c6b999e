type impl = Call_ctx.t -> Value.t list -> (Value.t, Oerror.t) result

type meth = { mname : string; msig : Vtype.signature; impl : impl }

type t = {
  name : string;
  methods : meth list;
  state : Value.t ref option;
}

let make ?state ~name methods =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.mname then
        invalid_arg (Printf.sprintf "Iface.make: duplicate method %S" m.mname);
      Hashtbl.add seen m.mname ())
    methods;
  { name; methods; state }

let meth ~name ~args ~ret impl = { mname = name; msig = { Vtype.args; ret }; impl }

type _ arg =
  | Int : int arg
  | Bool : bool arg
  | Str : string arg
  | Blob : bytes arg
  | Handle : int arg
  | List : Vtype.t -> Value.t list arg
  | Any : Value.t arg

let vtype : type a. a arg -> Vtype.t = function
  | Int -> Vtype.Tint
  | Bool -> Vtype.Tbool
  | Str -> Vtype.Tstr
  | Blob -> Vtype.Tblob
  | Handle -> Vtype.Thandle
  | List t -> Vtype.Tlist t
  | Any -> Vtype.Tany

type body = (Value.t, Oerror.t) result

exception Shape

(* Only the head constructor is tested: [Invoke] has already checked the
   whole value, so this is the fallback for a direct [impl] call and
   allocates nothing. *)
let[@inline] decode : type a. a arg -> Value.t -> a =
 fun d v ->
  match (d, v) with
  | Int, Value.Int n -> n
  | Bool, Value.Bool b -> b
  | Str, Value.Str s -> s
  | Blob, Value.Blob b -> b
  | Handle, Value.Handle h -> h
  | List _, Value.List l -> l
  | Any, v -> v
  | _ -> raise_notrace Shape

(* the one shape fallback, for a direct [impl] call that bypasses Invoke *)
let mismatch name msig =
  Error
    (Oerror.Type_error
       (Printf.sprintf "%s expects %s" name (Vtype.to_string_signature msig)))

let fn0 ~name ~ret f =
  let msig = { Vtype.args = []; ret } in
  let impl ctx = function [] -> f ctx | _ -> mismatch name msig in
  { mname = name; msig; impl }

let fn1 ~name a ~ret f =
  let msig = { Vtype.args = [ vtype a ]; ret } in
  let impl ctx = function
    | [ x ] -> (
      match decode a x with x -> f ctx x | exception Shape -> mismatch name msig)
    | _ -> mismatch name msig
  in
  { mname = name; msig; impl }

let fn2 ~name a b ~ret f =
  let msig = { Vtype.args = [ vtype a; vtype b ]; ret } in
  let impl ctx = function
    | [ x; y ] -> (
      match (decode a x, decode b y) with
      | x, y -> f ctx x y
      | exception Shape -> mismatch name msig)
    | _ -> mismatch name msig
  in
  { mname = name; msig; impl }

let fn3 ~name a b c ~ret f =
  let msig = { Vtype.args = [ vtype a; vtype b; vtype c ]; ret } in
  let impl ctx = function
    | [ x; y; z ] -> (
      match (decode a x, decode b y, decode c z) with
      | x, y, z -> f ctx x y z
      | exception Shape -> mismatch name msig)
    | _ -> mismatch name msig
  in
  { mname = name; msig; impl }

let fn4 ~name a b c d ~ret f =
  let msig = { Vtype.args = [ vtype a; vtype b; vtype c; vtype d ]; ret } in
  let impl ctx = function
    | [ w; x; y; z ] -> (
      match (decode a w, decode b x, decode c y, decode d z) with
      | w, x, y, z -> f ctx w x y z
      | exception Shape -> mismatch name msig)
    | _ -> mismatch name msig
  in
  { mname = name; msig; impl }

(* the one value-domain check on a format argument *)
let text_or_json name ~text ~json =
  fn1 ~name Str ~ret:Vtype.Tstr (fun _ -> function
    | "text" -> Ok (Value.Str (text ()))
    | "json" -> Ok (Value.Str (json ()))
    | other ->
      Error (Oerror.Type_error (Printf.sprintf "%s(\"text\"|\"json\"), not %S" name other)))

let find_method t name = List.find_opt (fun m -> String.equal m.mname name) t.methods

let method_names t = List.map (fun m -> m.mname) t.methods

let type_info t =
  List.map (fun m -> (m.mname, Vtype.to_string_signature m.msig)) t.methods

let override t ~methods =
  List.iter
    (fun m ->
      if find_method t m.mname = None then
        invalid_arg (Printf.sprintf "Iface.override: no method %S to override" m.mname))
    methods;
  let replace m =
    match List.find_opt (fun r -> String.equal r.mname m.mname) methods with
    | Some r -> r
    | None -> m
  in
  { t with methods = List.map replace t.methods }

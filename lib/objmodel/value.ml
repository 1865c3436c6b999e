type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Blob of bytes
  | Pair of t * t
  | List of t list
  | Handle of int

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Blob x, Blob y -> Bytes.equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Handle x, Handle y -> x = y
  | (Unit | Bool _ | Int _ | Str _ | Blob _ | Pair _ | List _ | Handle _), _ -> false

let rec words = function
  | Unit -> 0
  | Bool _ | Int _ | Handle _ -> 1
  | Str s -> 1 + ((String.length s + 3) / 4)
  | Blob b -> 1 + ((Bytes.length b + 3) / 4)
  | Pair (a, b) -> words a + words b
  | List xs -> 1 + List.fold_left (fun acc v -> acc + words v) 0 xs

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int n -> Format.pp_print_int fmt n
  | Str s -> Format.fprintf fmt "%S" s
  | Blob b -> Format.fprintf fmt "<blob:%d>" (Bytes.length b)
  | Pair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b
  | List xs ->
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp)
      xs
  | Handle h -> Format.fprintf fmt "#%d" h

let to_string v = Format.asprintf "%a" pp v

let to_int = function Int n -> n | v -> invalid_arg ("Value.to_int: " ^ to_string v)
let to_str = function Str s -> s | v -> invalid_arg ("Value.to_str: " ^ to_string v)

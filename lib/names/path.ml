type t = string list (* segments, outermost first *)

let root = []

let valid_segment s =
  String.length s > 0
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let check_segment s =
  if not (valid_segment s) then invalid_arg (Printf.sprintf "Path: bad segment %S" s)

let of_string s =
  if String.length s = 0 || s.[0] <> '/' then
    invalid_arg (Printf.sprintf "Path.of_string: %S is not absolute" s);
  if String.equal s "/" then root
  else begin
    let segs = String.split_on_char '/' (String.sub s 1 (String.length s - 1)) in
    List.iter check_segment segs;
    segs
  end

let to_string = function [] -> "/" | segs -> "/" ^ String.concat "/" segs

let segments t = t

let child t seg =
  check_segment seg;
  t @ [ seg ]

let parent = function
  | [] -> None
  | segs -> Some (List.filteri (fun i _ -> i < List.length segs - 1) segs)

let basename = function [] -> None | segs -> Some (List.nth segs (List.length segs - 1))

let length = List.length

let equal a b = a = b

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | x :: p', y :: q' -> String.equal x y && is_prefix p' q'

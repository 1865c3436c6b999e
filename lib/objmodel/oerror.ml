type t =
  | No_such_interface of string
  | No_such_method of string * string
  | Type_error of string
  | Domain_error of string
  | Revoked
  | Fault of string
  | Not_superset of string

exception Error of t

let to_string = function
  | No_such_interface i -> Printf.sprintf "no such interface %S" i
  | No_such_method (i, m) -> Printf.sprintf "no method %S in interface %S" m i
  | Type_error s -> Printf.sprintf "type error: %s" s
  | Domain_error s -> Printf.sprintf "domain error: %s" s
  | Revoked -> "object revoked"
  | Fault s -> Printf.sprintf "fault: %s" s
  | Not_superset s -> Printf.sprintf "interposer is not a superset: %s" s

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Oerror.Error: " ^ to_string e)
    | _ -> None)

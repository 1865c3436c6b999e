type kind = Kernel | User

type t = {
  id : int;
  name : string;
  kind : kind;
  view : Pm_names.View.t;
  mutable alive : bool;
}

let is_kernel t = t.kind = Kernel

let pp fmt t =
  Format.fprintf fmt "%s#%d(%s)" t.name t.id
    (match t.kind with Kernel -> "kernel" | User -> "user")

let make ~id ~name ~kind ~view () = { id; name; kind; view; alive = true }

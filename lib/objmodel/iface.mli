(** Named interfaces: "a set of methods, state pointers and type
    information".

    An object exports one or more named interfaces; adding an interface
    (say a measurement interface on an RPC object) does not disturb
    existing users, which is the paper's answer to interface evolution.
    Methods are invoked only through {!Invoke}; the implementation type
    receives the {!Call_ctx} so every layer charges the same clock. *)

type impl = Call_ctx.t -> Value.t list -> (Value.t, Oerror.t) result

type meth = { mname : string; msig : Vtype.signature; impl : impl }

type t = {
  name : string;  (** interface name, e.g. "netdev" *)
  methods : meth list;
  state : Value.t ref option;  (** the interface's state pointer *)
}

val make : ?state:Value.t ref -> name:string -> meth list -> t

(** [meth ~name ~args ~ret impl] builds a method descriptor from a raw
    implementation. Components declare methods with {!fn0} .. {!fn4};
    this is the primitive for forwarders and generic code. *)
val meth : name:string -> args:Vtype.t list -> ret:Vtype.t -> impl -> meth

(** {2 Typed declarations}

    An argument descriptor names one argument's type once: the method's
    published signature is derived from it, and the implementation
    receives the decoded OCaml value. *)

type _ arg =
  | Int : int arg
  | Bool : bool arg
  | Str : string arg
  | Blob : bytes arg
  | Handle : int arg  (** an object handle *)
  | List : Vtype.t -> Value.t list arg
      (** a list of elements of the given type, passed through unwrapped
          and uncopied *)
  | Any : Value.t arg  (** any value, passed through *)

type body = (Value.t, Oerror.t) result

(** [fn2 ~name a b ~ret f] declares method [name] of signature
    [(vtype a, vtype b) -> ret] whose implementation is [f] applied to
    the decoded arguments. {!Invoke} checks every call against the
    signature before [f] runs; a direct [impl] call of the wrong shape
    returns [Type_error] without reaching [f]. The other arities are the
    same. Decoding allocates nothing. *)
val fn0 : name:string -> ret:Vtype.t -> (Call_ctx.t -> body) -> meth

val fn1 : name:string -> 'a arg -> ret:Vtype.t -> (Call_ctx.t -> 'a -> body) -> meth

val fn2 :
  name:string ->
  'a arg ->
  'b arg ->
  ret:Vtype.t ->
  (Call_ctx.t -> 'a -> 'b -> body) ->
  meth

val fn3 :
  name:string ->
  'a arg ->
  'b arg ->
  'c arg ->
  ret:Vtype.t ->
  (Call_ctx.t -> 'a -> 'b -> 'c -> body) ->
  meth

val fn4 :
  name:string ->
  'a arg ->
  'b arg ->
  'c arg ->
  'd arg ->
  ret:Vtype.t ->
  (Call_ctx.t -> 'a -> 'b -> 'c -> 'd -> body) ->
  meth

(** [text_or_json name ~text ~json] declares [name(fmt) : str], the
    format verb of every exporter: ["text"] returns [text ()], ["json"]
    returns [json ()], and any other [fmt] is a [Type_error] naming
    it. *)
val text_or_json :
  string -> text:(unit -> string) -> json:(unit -> string) -> meth

val find_method : t -> string -> meth option

val method_names : t -> string list

(** [type_info t] renders every method signature, the interface's
    published type information. *)
val type_info : t -> (string * string) list

(** [override t ~methods] is [t] with the given methods replaced (matched
    by name) — the building block of interposing agents. Methods not
    mentioned are kept. Raises [Invalid_argument] if a replacement names a
    method that does not exist. *)
val override : t -> methods:meth list -> t

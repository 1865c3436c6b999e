module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost
module Meta = Pm_secure.Meta
module Validator = Pm_secure.Validator
module Namespace = Pm_names.Namespace
module Instance = Pm_obj.Instance
module Journal = Pm_journal.Journal

let jot t ~kind ~domain ~info ~detail =
  let clock = Machine.clock t.Api.machine in
  Journal.record
    (Pm_obs.Obs.journal (Clock.obs clock))
    ~kind ~domain ~at:(Clock.now clock) ~info ~detail

type constructor = Api.t -> Domain.t -> Instance.t

type image = {
  meta : Meta.t;
  code : string;
  cert : Pm_secure.Certificate.t option;
  construct : constructor;
}

type load_error =
  | Unknown_component of string
  | Not_certified of string
  | Validation_failed of Validator.failure
  | Verification_failed of string
  | Name_taken of Namespace.error

let load_error_to_string = function
  | Unknown_component n -> Printf.sprintf "unknown component %S" n
  | Not_certified n ->
    Printf.sprintf "component %S has no certificate and no sandbox was offered" n
  | Validation_failed f -> Validator.failure_to_string f
  | Verification_failed r -> Printf.sprintf "bytecode verification failed: %s" r
  | Name_taken e -> Namespace.error_to_string e

type t = {
  api : Api.t;
  repo : (string, image) Hashtbl.t;
  (* per component name: the affine fuel bound the verifier proved at
     the most recent Verified load — what the kernel meters a verified
     component's runs against instead of per-instruction checks *)
  fuel : (string, Pm_check.Verify.fuel_bound) Hashtbl.t;
}

let create api = { api; repo = Hashtbl.create 16; fuel = Hashtbl.create 16 }

let publish t image = Hashtbl.replace t.repo image.meta.Meta.name image

(* Gate kernel-domain placement. Three trust mechanisms admit a
   component: bytecode verification (requested with [verify]; a static
   proof, no signer involved), a valid certificate, or an explicit
   sandbox wrapper paying per-access run-time checks. A failed
   verification falls back to the certificate, then the sandbox. *)
let check_placement t image ~into ~sandbox ~verify =
  if not (Domain.is_kernel into) then Ok `Plain
  else begin
    let certified () =
      match image.cert with
      | Some cert ->
        (match Certsvc.validate t.api.Api.certification cert ~code:image.code with
        | Validator.Valid _ -> Ok `Plain
        | Validator.Invalid f ->
          (* an invalid certificate falls back to the sandbox escape *)
          (match sandbox with Some _ -> Ok `Sandboxed | None -> Error (Validation_failed f)))
      | None ->
        (match sandbox with
        | Some _ -> Ok `Sandboxed
        | None -> Error (Not_certified image.meta.Meta.name))
    in
    if not verify then certified ()
    else begin
      match Certsvc.verify t.api.Api.certification ~code:image.code with
      | Ok fuel -> Ok (`Verified fuel)
      | Error reason ->
        (match certified () with
        | Error (Not_certified _) -> Error (Verification_failed reason)
        | other -> other)
    end
  end

let load t ~name ~into ~at ?sandbox ?(verify = false) () =
  match Hashtbl.find_opt t.repo name with
  | None -> Error (Unknown_component name)
  | Some image ->
    (match check_placement t image ~into ~sandbox ~verify with
    | Error _ as e -> e
    | Ok mode ->
      let machine = t.api.Api.machine in
      let pages =
        (String.length image.code + Machine.page_size machine - 1)
        / Machine.page_size machine
      in
      Clock.advance (Machine.clock machine)
        (pages * (Machine.costs machine).Cost.load_page);
      Clock.bump (Machine.clock machine) Clock.Component_load;
      let inst = image.construct t.api into in
      let inst =
        match (mode, sandbox) with
        | `Sandboxed, Some wrap -> wrap inst
        | `Sandboxed, None -> assert false
        (* a verified component maps exactly like a certified one: no
           wrapper, no run-time checks — the proof already happened; the
           proven fuel bound is recorded so the run path can meter the
           component against its own proof rather than a blanket default *)
        | (`Plain | `Verified _), _ -> inst
      in
      (match mode with
      | `Verified fuel -> Hashtbl.replace t.fuel name fuel
      | `Plain | `Sandboxed -> ());
      (match Directory.register t.api.Api.directory at inst with
      | Ok () ->
        jot t.api ~kind:Journal.Install ~domain:into.Domain.id
          ~info:(Instance.handle inst)
          ~detail:
            (Printf.sprintf "%s @ %s" name (Pm_names.Path.to_string at));
        Ok inst
      | Error e ->
        Instance.revoke inst;
        Error (Name_taken e)))

let verified_fuel t name = Hashtbl.find_opt t.fuel name

let unload t path =
  let dir = t.api.Api.directory in
  match Namespace.lookup (Directory.namespace dir) path with
  | Error e -> Error (Name_taken e)
  | Ok handle ->
    (match Directory.unregister dir path with
    | Error e -> Error (Name_taken e)
    | Ok () ->
      let domain =
        match Directory.resolve_handle dir handle with
        | Some inst ->
          Instance.revoke inst;
          inst.Instance.domain
        | None -> 0
      in
      jot t.api ~kind:Journal.Detach ~domain ~info:handle
        ~detail:(Pm_names.Path.to_string path);
      Ok ())

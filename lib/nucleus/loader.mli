(** Component repository and dynamic loader.

    "Objects are usually loaded dynamically on demand" from "a repository
    of system components". An {!image} bundles a component's metadata, its
    (simulated) object code — the bytes the certificate digests — an
    optional certificate, and a constructor.

    Placement policy, per the paper's §4: loading into the kernel
    protection domain requires a certificate that the certification
    service validates against the code at load time. The [sandbox]
    escape (used by the Exokernel/SFI baseline) admits an uncertified
    component into the kernel by wrapping its instance in run-time
    checks — exactly the software-protection alternative the paper
    argues certification supersedes. User-domain loads need neither. *)

type constructor = Api.t -> Domain.t -> Pm_obj.Instance.t

type image = {
  meta : Pm_secure.Meta.t;
  code : string;  (** simulated object code; what certificates digest *)
  cert : Pm_secure.Certificate.t option;
  construct : constructor;
}

type load_error =
  | Unknown_component of string
  | Not_certified of string
  | Validation_failed of Pm_secure.Validator.failure
  | Verification_failed of string
      (** bytecode verification was requested and failed, and no
          certificate or sandbox could admit the component either *)
  | Name_taken of Pm_names.Namespace.error

val load_error_to_string : load_error -> string

type t

val create : Api.t -> t

(** [publish t image] adds a component image to the repository,
    replacing any previous image of the same name. *)
val publish : t -> image -> unit

(** [load t ~name ~into ~at ?sandbox ?verify ()] validates placement,
    charges the per-page mapping cost, constructs the instance, and
    registers it at [at].

    The load keeps a receipt of what it took: every registry slot it
    made (the registered instance's, the constructed one's when a
    sandbox wrapped it, and any other instance the constructor made,
    such as a composite's children), and the pages the constructor
    allocated, read through a {!Vmem.mark} taken just before it ran.
    Proxies the constructor bound, and their pages, are not the load's:
    {!Directory} keeps those with their binds. A load refused its name
    returns all of it at once, and so does one whose constructor
    raises, before the exception reaches the caller.

    [verify] (default [false]) requests the third trust mechanism for a
    kernel-domain load: the {!Certsvc.verify} bytecode verifier proves
    the object code safe statically, admitting the component exactly
    like a certified one — mapped plain, zero per-access overhead — but
    with no signature required. When verification fails the loader falls
    back to the certificate, then the sandbox; when nothing admits the
    component the error is [Verification_failed]. *)
val load :
  t ->
  name:string ->
  into:Domain.t ->
  at:Pm_names.Path.t ->
  ?sandbox:(Pm_obj.Instance.t -> Pm_obj.Instance.t) ->
  ?verify:bool ->
  unit ->
  (Pm_obj.Instance.t, load_error) result

(** [verified_fuel t name] is the affine fuel bound the bytecode
    verifier proved at [name]'s most recent [Verified] load, if any —
    the run-time allowance ([Pm_check.Verify.fuel_for] the window
    length) the kernel meters that component against, replacing the
    blanket default that unverified bytecode gets. *)
val verified_fuel : t -> string -> Pm_check.Verify.fuel_bound option

(** [unload t path] unregisters and revokes the instance at [path], then
    returns what binding and loading it took: {!Directory.release} frees
    the entry page of every proxy bound to it and drops the proxies, the
    load receipt's pages are freed through {!Vmem.free_pages} and its
    registry slots removed, and the instance leaves the registry, so its
    handle no longer resolves.
    Nothing is charged: freeing pages costs no cycle. A proxy its caller
    still holds answers [Revoked]. *)
val unload : t -> Pm_names.Path.t -> (unit, load_error) result

type failure =
  | Digest_mismatch
  | Bad_signature
  | Untrusted_signer of string
  | Revoked_principal of string
  | Expired_grant of string

type decision = Valid of { chain_length : int } | Invalid of failure

type verdict = Unchecked | Sound | Unsound

(* A taught grant and what checking its signature found. The verdict
   belongs to this entry, not to the signature bytes or a principal: a
   forged grant can carry a genuine grant's signature. *)
type entry = { grant : Delegation.t; mutable verdict : verdict }

type t = {
  root : Principal.t;
  mutable known_grants : entry list;
  revoked : (string, unit) Hashtbl.t;
  mutable signatures_checked : int;
}

let create ~root =
  { root; known_grants = []; revoked = Hashtbl.create 8; signatures_checked = 0 }

let root t = t.root
(* a grant taught again, every field equal, is the entry already kept *)
let add_grant t grant =
  if not (List.exists (fun e -> e.grant = grant) t.known_grants) then
    t.known_grants <- { grant; verdict = Unchecked } :: t.known_grants
let revoke t pid = Hashtbl.replace t.revoked pid ()
let signatures_checked t = t.signatures_checked

let scope_certification = "kernel-certification"

(* A grant does not change once issued, so its signature is checked the
   first time a search reaches it and never again. *)
let sound t e =
  if e.verdict = Unchecked then begin
    t.signatures_checked <- t.signatures_checked + 1;
    e.verdict <- (if Delegation.well_signed e.grant then Sound else Unsound)
  end;
  e.verdict = Sound

(* Does [pid] speak for the root through known grants? BFS upward over
   grants naming [pid] as delegate; cycles are cut by the visited set.
   With no chain, [Error (Some d)] names the delegate of the first sound,
   in-scope grant the search skipped only because it had expired. *)
let chain_to_root t pid ~now =
  let visited = Hashtbl.create 8 in
  let expired = ref None in
  let rec search frontier depth =
    if frontier = [] || depth > 16 then None
    else if List.exists (fun p -> String.equal p (Principal.id t.root)) frontier then
      Some depth
    else begin
      let next =
        List.concat_map
          (fun p ->
            if Hashtbl.mem visited p then []
            else begin
              Hashtbl.add visited p ();
              List.filter_map
                (fun e ->
                  let g = e.grant in
                  if
                    String.equal (Principal.id g.Delegation.delegate) p
                    && String.equal g.Delegation.scope scope_certification
                    && sound t e
                    && not (Hashtbl.mem t.revoked (Principal.id g.Delegation.grantor))
                  then
                    if Delegation.live g ~now then Some (Principal.id g.Delegation.grantor)
                    else begin
                      if !expired = None then expired := Some p;
                      None
                    end
                  else None)
                t.known_grants
            end)
          frontier
      in
      search next (depth + 1)
    end
  in
  match search [ pid ] 0 with Some depth -> Ok depth | None -> Error !expired

let validate t cert ~code ~now =
  let signer_id = Principal.id cert.Certificate.signer in
  if not (Certificate.matches_code cert code) then Invalid Digest_mismatch
  else begin
    t.signatures_checked <- t.signatures_checked + 1;
    if not (Certificate.well_signed cert) then Invalid Bad_signature
    else if Hashtbl.mem t.revoked signer_id then Invalid (Revoked_principal signer_id)
    else
      match chain_to_root t signer_id ~now with
      | Ok depth -> Valid { chain_length = depth }
      | Error (Some delegate) -> Invalid (Expired_grant delegate)
      | Error None -> Invalid (Untrusted_signer signer_id)
  end

let failure_to_string = function
  | Digest_mismatch -> "component digest does not match certificate"
  | Bad_signature -> "certificate signature invalid"
  | Untrusted_signer s -> Printf.sprintf "signer %s has no chain to the authority" s
  | Revoked_principal s -> Printf.sprintf "principal %s is revoked" s
  | Expired_grant s -> Printf.sprintf "grant for %s has expired" s

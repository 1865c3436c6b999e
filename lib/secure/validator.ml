type failure =
  | Digest_mismatch
  | Bad_signature
  | Untrusted_signer of string
  | Revoked_principal of string
  | Expired_grant of string

type decision = Valid of { chain_length : int } | Invalid of failure

type t = {
  root : Principal.t;
  mutable known_grants : Delegation.t list;
  revoked : (string, unit) Hashtbl.t;
}

let create ~root = { root; known_grants = []; revoked = Hashtbl.create 8 }

let root t = t.root
let add_grant t g = t.known_grants <- g :: t.known_grants
let revoke t pid = Hashtbl.replace t.revoked pid ()

let scope_certification = "kernel-certification"

(* Does [pid] speak for the root through known grants? BFS upward over
   grants naming [pid] as delegate; cycles are cut by the visited set. *)
let chain_to_root t pid ~now =
  let visited = Hashtbl.create 8 in
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
                (fun g ->
                  if
                    String.equal (Principal.id g.Delegation.delegate) p
                    && String.equal g.Delegation.scope scope_certification
                    && Delegation.well_signed g
                    && Delegation.live g ~now
                    && not (Hashtbl.mem t.revoked (Principal.id g.Delegation.grantor))
                  then Some (Principal.id g.Delegation.grantor)
                  else None)
                t.known_grants
            end)
          frontier
      in
      search next (depth + 1)
    end
  in
  search [ pid ] 0

let validate t cert ~code ~now =
  let signer_id = Principal.id cert.Certificate.signer in
  if not (Certificate.matches_code cert code) then Invalid Digest_mismatch
  else if not (Certificate.well_signed cert) then Invalid Bad_signature
  else if Hashtbl.mem t.revoked signer_id then Invalid (Revoked_principal signer_id)
  else begin
    match chain_to_root t signer_id ~now with
    | Some depth -> Valid { chain_length = depth }
    | None ->
      (* distinguish "no grant at all" from "grant exists but expired" for
         better operator diagnostics *)
      let expired =
        List.exists
          (fun g ->
            String.equal (Principal.id g.Delegation.delegate) signer_id
            && String.equal g.Delegation.scope scope_certification
            && Delegation.well_signed g
            && not (Delegation.live g ~now))
          t.known_grants
      in
      if expired then Invalid (Expired_grant signer_id)
      else Invalid (Untrusted_signer signer_id)
  end

let failure_to_string = function
  | Digest_mismatch -> "component digest does not match certificate"
  | Bad_signature -> "certificate signature invalid"
  | Untrusted_signer s -> Printf.sprintf "signer %s has no chain to the authority" s
  | Revoked_principal s -> Printf.sprintf "principal %s is revoked" s
  | Expired_grant s -> Printf.sprintf "grant for %s has expired" s

(* Tests for the certification architecture: principals, certificates,
   speaks-for delegation, the authority's escape hatch, and the kernel
   validator. *)

open Paramecium

let rng () = Prng.create ~seed:2024
let key_bits = 384 (* smallest width that fits a SHA-256 PKCS block; fast but real *)

(* a fixture: CA + one compiler delegate + one admin delegate *)
type fixture = {
  auth : Authority.t;
  compiler : Authority.delegate;
  admin : Authority.delegate;
  r : Prng.t;
}

let fixture () =
  let r = rng () in
  let auth = Authority.create r ~name:"ca" ~key_bits in
  let compiler =
    Authority.add_delegate auth r ~name:"compiler" ~policy:Policies.trusted_compiler
      ~latency:100 ()
  in
  let admin =
    Authority.add_delegate auth r ~name:"admin"
      ~policy:(Policies.administrator ~trusted_authors:[ "alice" ])
      ~latency:1000 ()
  in
  { auth; compiler; admin; r }

let meta ?(author = "alice") ?(type_safe = false) ?tags name =
  Meta.make ~author ~type_safe ?tags ~name ~size:1024 ()

let validator_of f =
  let v = Validator.create ~root:(Authority.ca f.auth) in
  List.iter (Validator.add_grant v) (Authority.grants f.auth);
  v

(* --- principals -------------------------------------------------------- *)

let test_principal_identity () =
  let r = rng () in
  let k1 = Rsa.generate r ~bits:key_bits in
  let p1 = Principal.make "alice" k1.Rsa.pub in
  let p1' = Principal.make "alice-renamed" k1.Rsa.pub in
  let k2 = Rsa.generate r ~bits:key_bits in
  let p2 = Principal.make "alice" k2.Rsa.pub in
  Alcotest.(check bool) "same key, same principal" true (Principal.equal p1 p1');
  Alcotest.(check bool) "same name, different key" false (Principal.equal p1 p2)

(* --- certificates ------------------------------------------------------- *)

let test_certificate_sign_verify () =
  let r = rng () in
  let key = Rsa.generate r ~bits:key_bits in
  let signer = Principal.make "signer" key.Rsa.pub in
  let code = "object code bytes" in
  let cert =
    Certificate.issue key ~signer ~component:"comp" ~digest:(Sha256.digest code)
      ~issued_at:5
  in
  Alcotest.(check bool) "well signed" true (Certificate.well_signed cert);
  Alcotest.(check bool) "matches code" true (Certificate.matches_code cert code);
  Alcotest.(check bool) "detects tampering" false
    (Certificate.matches_code cert (code ^ "x"));
  let forged = { cert with Certificate.component = "other" } in
  Alcotest.(check bool) "field change breaks signature" false
    (Certificate.well_signed forged)

(* --- delegation ---------------------------------------------------------- *)

let test_delegation_statements () =
  let r = rng () in
  let ca_key = Rsa.generate r ~bits:key_bits in
  let ca = Principal.make "ca" ca_key.Rsa.pub in
  let del_key = Rsa.generate r ~bits:key_bits in
  let del = Principal.make "delegate" del_key.Rsa.pub in
  let g = Delegation.grant ca_key ~grantor:ca ~delegate:del ~scope:"s" () in
  Alcotest.(check bool) "well signed" true (Delegation.well_signed g);
  Alcotest.(check bool) "never expires" true (Delegation.live g ~now:max_int);
  let g2 = Delegation.grant ca_key ~grantor:ca ~delegate:del ~scope:"s" ~expires:100 () in
  Alcotest.(check bool) "live before" true (Delegation.live g2 ~now:99);
  Alcotest.(check bool) "dead after" false (Delegation.live g2 ~now:100);
  let forged = { g with Delegation.scope = "other" } in
  Alcotest.(check bool) "scope change breaks signature" false
    (Delegation.well_signed forged)

(* --- authority / escape hatch -------------------------------------------- *)

let test_certify_first_delegate () =
  let f = fixture () in
  let outcome = Authority.certify f.auth (meta ~type_safe:true "ts") ~code:"c" ~now:1 in
  (match outcome.Authority.certificate with
  | Some cert ->
    Alcotest.(check bool) "compiler signed" true
      (Principal.equal cert.Certificate.signer f.compiler.Authority.principal)
  | None -> Alcotest.fail "expected a certificate");
  Alcotest.(check int) "only compiler consulted" 1 (List.length outcome.Authority.trail);
  Alcotest.(check int) "compiler latency" 100 outcome.Authority.elapsed

let test_certify_escape_hatch () =
  let f = fixture () in
  (* not type-safe: compiler cannot decide, falls through to admin *)
  let outcome = Authority.certify f.auth (meta "plain") ~code:"c" ~now:1 in
  (match outcome.Authority.certificate with
  | Some cert ->
    Alcotest.(check bool) "admin signed" true
      (Principal.equal cert.Certificate.signer f.admin.Authority.principal)
  | None -> Alcotest.fail "expected a certificate");
  Alcotest.(check int) "both consulted" 2 (List.length outcome.Authority.trail);
  Alcotest.(check int) "latencies accumulate" 1100 outcome.Authority.elapsed

let test_certify_all_decline () =
  let f = fixture () in
  let outcome = Authority.certify f.auth (meta ~author:"mallory" "bad") ~code:"c" ~now:1 in
  Alcotest.(check bool) "no certificate" true (outcome.Authority.certificate = None);
  (match outcome.Authority.trail with
  | [ ("compiler", Authority.Cannot_decide); ("admin", Authority.Reject _) ] -> ()
  | _ -> Alcotest.fail "unexpected trail")

let test_policies () =
  let open Authority in
  (match Policies.prover (meta "x") with
  | Cannot_decide -> ()
  | _ -> Alcotest.fail "prover needs annotations");
  (match Policies.prover (Meta.make ~proof_annotated:true ~name:"x" ~size:1 ()) with
  | Accept -> ()
  | _ -> Alcotest.fail "prover accepts annotated");
  (match Policies.test_team (meta ~tags:[ "tested" ] "x") with
  | Accept -> ()
  | _ -> Alcotest.fail "test team accepts tested");
  (match Policies.test_team (meta ~tags:[ "known-bad" ] "x") with
  | Reject _ -> ()
  | _ -> Alcotest.fail "test team rejects known-bad");
  (match Policies.graduate_student ~max_size:100 (meta "x") with
  | Cannot_decide -> ()
  | _ -> Alcotest.fail "student overwhelmed by 1KB");
  let r = rng () in
  let always = Policies.flaky r ~fail_probability:1.0 Policies.trusted_compiler in
  (match always (meta ~type_safe:true "x") with
  | Cannot_decide -> ()
  | _ -> Alcotest.fail "flaky 1.0 never decides")

(* --- validator -------------------------------------------------------------- *)

let certify_exn f m ~code ~now =
  match (Authority.certify f.auth m ~code ~now).Authority.certificate with
  | Some c -> c
  | None -> Alcotest.fail "fixture should certify"

let test_validate_accepts_chain () =
  let f = fixture () in
  let v = validator_of f in
  let code = "good code" in
  let cert = certify_exn f (meta ~type_safe:true "c") ~code ~now:1 in
  (match Validator.validate v cert ~code ~now:2 with
  | Validator.Valid { chain_length } -> Alcotest.(check int) "one hop" 1 chain_length
  | Validator.Invalid e -> Alcotest.failf "rejected: %s" (Validator.failure_to_string e))

let test_validate_rejects_tampered_code () =
  let f = fixture () in
  let v = validator_of f in
  let cert = certify_exn f (meta ~type_safe:true "c") ~code:"good code" ~now:1 in
  (match Validator.validate v cert ~code:"evil code" ~now:2 with
  | Validator.Invalid Validator.Digest_mismatch -> ()
  | _ -> Alcotest.fail "tampered code must be rejected")

let test_validate_rejects_unknown_signer () =
  let f = fixture () in
  let v = Validator.create ~root:(Authority.ca f.auth) in
  (* no grants taught to the validator *)
  let code = "code" in
  let cert = certify_exn f (meta ~type_safe:true "c") ~code ~now:1 in
  (match Validator.validate v cert ~code ~now:2 with
  | Validator.Invalid (Validator.Untrusted_signer _) -> ()
  | _ -> Alcotest.fail "signer without chain must be rejected")

let test_validate_rejects_revoked () =
  let f = fixture () in
  let v = validator_of f in
  let code = "code" in
  let cert = certify_exn f (meta ~type_safe:true "c") ~code ~now:1 in
  Validator.revoke v (Principal.id f.compiler.Authority.principal);
  (match Validator.validate v cert ~code ~now:2 with
  | Validator.Invalid (Validator.Revoked_principal _) -> ()
  | _ -> Alcotest.fail "revoked signer must be rejected")

let test_validate_rejects_expired_grant () =
  let r = rng () in
  let auth = Authority.create r ~name:"ca" ~key_bits in
  let d =
    Authority.add_delegate auth r ~name:"temp" ~policy:(fun _ -> Authority.Accept)
      ~latency:1 ~expires:50 ()
  in
  ignore d;
  let v = Validator.create ~root:(Authority.ca auth) in
  List.iter (Validator.add_grant v) (Authority.grants auth);
  let code = "code" in
  let cert =
    match (Authority.certify auth (meta "c") ~code ~now:10).Authority.certificate with
    | Some c -> c
    | None -> Alcotest.fail "should certify"
  in
  (match Validator.validate v cert ~code ~now:20 with
  | Validator.Valid _ -> ()
  | Validator.Invalid e -> Alcotest.failf "live grant rejected: %s" (Validator.failure_to_string e));
  (match Validator.validate v cert ~code ~now:60 with
  | Validator.Invalid (Validator.Expired_grant _) -> ()
  | _ -> Alcotest.fail "expired grant must be rejected")

let test_validate_multi_hop_chain () =
  (* CA -> dept; dept re-delegates -> lab; lab signs *)
  let r = rng () in
  let auth = Authority.create r ~name:"ca" ~key_bits in
  let dept_key = Rsa.generate r ~bits:key_bits in
  let dept = Principal.make "dept" dept_key.Rsa.pub in
  let lab_key = Rsa.generate r ~bits:key_bits in
  let lab = Principal.make "lab" lab_key.Rsa.pub in
  (* CA grants to dept via the normal delegate path *)
  let dept_delegate =
    Authority.add_delegate auth r ~name:"dept-unused" ~policy:(fun _ -> Authority.Cannot_decide)
      ~latency:1 ()
  in
  ignore dept_delegate;
  let v = Validator.create ~root:(Authority.ca auth) in
  List.iter (Validator.add_grant v) (Authority.grants auth);
  (* hand-build the chain CA -> dept -> lab; we need the CA key, so reuse
     Authority.certify_direct-style construction via a fresh authority
     whose ca key we control *)
  let ca_key = Rsa.generate r ~bits:key_bits in
  let ca = Principal.make "root2" ca_key.Rsa.pub in
  let v2 = Validator.create ~root:ca in
  Validator.add_grant v2
    (Delegation.grant ca_key ~grantor:ca ~delegate:dept ~scope:"kernel-certification" ());
  Validator.add_grant v2
    (Delegation.grant dept_key ~grantor:dept ~delegate:lab ~scope:"kernel-certification" ());
  let code = "multi hop" in
  let m = meta "mh" in
  let cert = Authority.certify_direct ~signer_key:lab_key ~signer:lab ~meta:m ~code ~now:1 in
  (match Validator.validate v2 cert ~code ~now:2 with
  | Validator.Valid { chain_length } -> Alcotest.(check int) "two hops" 2 chain_length
  | Validator.Invalid e -> Alcotest.failf "rejected: %s" (Validator.failure_to_string e));
  (* revoking the middle principal severs the chain *)
  Validator.revoke v2 (Principal.id dept);
  (match Validator.validate v2 cert ~code ~now:2 with
  | Validator.Invalid _ -> ()
  | _ -> Alcotest.fail "revoked intermediary must sever the chain")

let test_validate_expired_intermediate_grant () =
  (* CA -> dept (expires at 50) -> lab; lab signs. The grant that
     expires is the middle link, not one naming the signer. *)
  let r = rng () in
  let ca_key = Rsa.generate r ~bits:key_bits in
  let ca = Principal.make "root" ca_key.Rsa.pub in
  let dept_key = Rsa.generate r ~bits:key_bits in
  let dept = Principal.make "dept" dept_key.Rsa.pub in
  let lab_key = Rsa.generate r ~bits:key_bits in
  let lab = Principal.make "lab" lab_key.Rsa.pub in
  let v = Validator.create ~root:ca in
  Validator.add_grant v
    (Delegation.grant ca_key ~grantor:ca ~delegate:dept ~scope:"kernel-certification"
       ~expires:50 ());
  Validator.add_grant v
    (Delegation.grant dept_key ~grantor:dept ~delegate:lab ~scope:"kernel-certification" ());
  let code = "expiring chain" in
  let cert =
    Authority.certify_direct ~signer_key:lab_key ~signer:lab ~meta:(meta "ec") ~code ~now:1
  in
  (match Validator.validate v cert ~code ~now:20 with
  | Validator.Valid { chain_length } -> Alcotest.(check int) "two hops" 2 chain_length
  | Validator.Invalid e -> Alcotest.failf "rejected: %s" (Validator.failure_to_string e));
  match Validator.validate v cert ~code ~now:60 with
  | Validator.Invalid (Validator.Expired_grant d) ->
    Alcotest.(check string) "names the expired grant's delegate" (Principal.id dept) d
  | Validator.Invalid e ->
    Alcotest.failf "wanted the expired grant, got: %s" (Validator.failure_to_string e)
  | Validator.Valid _ -> Alcotest.fail "a chain through an expired grant must not validate"

let test_validate_forged_copy_of_checked_grant () =
  let f = fixture () in
  let v = validator_of f in
  let code = "good code" in
  let cert = certify_exn f (meta ~type_safe:true "c") ~code ~now:1 in
  (* the compiler's genuine grant is checked, and found sound *)
  (match Validator.validate v cert ~code ~now:2 with
  | Validator.Valid _ -> ()
  | Validator.Invalid e -> Alcotest.failf "rejected: %s" (Validator.failure_to_string e));
  (* mallory copies that grant's signature onto a grant naming herself *)
  let r = Prng.create ~seed:666 in
  let mallory_key = Rsa.generate r ~bits:key_bits in
  let mallory = Principal.make "mallory" mallory_key.Rsa.pub in
  let genuine =
    List.find
      (fun g -> Principal.equal g.Delegation.delegate f.compiler.Authority.principal)
      (Authority.grants f.auth)
  in
  Validator.add_grant v { genuine with Delegation.delegate = mallory };
  let evil =
    Authority.certify_direct ~signer_key:mallory_key ~signer:mallory
      ~meta:(meta ~author:"mallory" "evil") ~code:"evil" ~now:1
  in
  let before = Validator.signatures_checked v in
  (match Validator.validate v evil ~code:"evil" ~now:2 with
  | Validator.Invalid (Validator.Untrusted_signer _) -> ()
  | _ -> Alcotest.fail "a forged grant must not take the genuine grant's verdict");
  Alcotest.(check int) "the forgery is checked for itself" 2
    (Validator.signatures_checked v - before);
  match Validator.validate v cert ~code ~now:3 with
  | Validator.Valid _ -> ()
  | Validator.Invalid e -> Alcotest.failf "genuine chain lost: %s" (Validator.failure_to_string e)

(* teaching a kernel its boot grants again must not double the checks *)
let test_validate_grant_taught_twice () =
  let f = fixture () in
  let v = validator_of f in
  List.iter (Validator.add_grant v) (Authority.grants f.auth);
  let code = "good code" in
  let cert = certify_exn f (meta ~type_safe:true "c") ~code ~now:1 in
  let checks () =
    let before = Validator.signatures_checked v in
    (match Validator.validate v cert ~code ~now:2 with
    | Validator.Valid _ -> ()
    | Validator.Invalid e -> Alcotest.failf "rejected: %s" (Validator.failure_to_string e));
    Validator.signatures_checked v - before
  in
  Alcotest.(check int) "the certificate and one copy of the grant" 2 (checks ());
  Alcotest.(check int) "the grant's verdict is kept" 1 (checks ())

let test_validate_forged_copy_taught_with_original () =
  let f = fixture () in
  let v = validator_of f in
  let r = Prng.create ~seed:666 in
  let mallory_key = Rsa.generate r ~bits:key_bits in
  let mallory = Principal.make "mallory" mallory_key.Rsa.pub in
  let genuine =
    List.find
      (fun g -> Principal.equal g.Delegation.delegate f.compiler.Authority.principal)
      (Authority.grants f.auth)
  in
  (* the same signature on a grant naming another delegate differs in a
     field, so it is an entry of its own *)
  Validator.add_grant v genuine;
  Validator.add_grant v { genuine with Delegation.delegate = mallory };
  let evil =
    Authority.certify_direct ~signer_key:mallory_key ~signer:mallory
      ~meta:(meta ~author:"mallory" "evil") ~code:"evil" ~now:1
  in
  let before = Validator.signatures_checked v in
  (match Validator.validate v evil ~code:"evil" ~now:2 with
  | Validator.Invalid (Validator.Untrusted_signer _) -> ()
  | _ -> Alcotest.fail "a forged grant must read Untrusted_signer");
  Alcotest.(check int) "the certificate and the forgery" 2
    (Validator.signatures_checked v - before)

let test_validate_self_signed_rejected () =
  (* mallory signs her own cert with her own key: no chain to the root *)
  let f = fixture () in
  let v = validator_of f in
  (* a different seed: reusing the fixture seed would regenerate the CA's
     own key and make mallory the root *)
  let r = Prng.create ~seed:666 in
  let mallory_key = Rsa.generate r ~bits:key_bits in
  let mallory = Principal.make "mallory" mallory_key.Rsa.pub in
  let code = "evil" in
  let cert =
    Authority.certify_direct ~signer_key:mallory_key ~signer:mallory
      ~meta:(meta ~author:"mallory" "evil") ~code ~now:1
  in
  Alcotest.(check bool) "signature itself is fine" true (Certificate.well_signed cert);
  (match Validator.validate v cert ~code ~now:2 with
  | Validator.Invalid (Validator.Untrusted_signer _) -> ()
  | _ -> Alcotest.fail "self-signed cert must be rejected")

(* --- the validator against a model ---------------------------------------- *)

(* The model is the validator as it was before it kept a verdict with
   each grant: it verifies every signature it reaches, on every
   validation. It is kept line for line, but for one change both share:
   a chain cut by an expired grant anywhere along it reads
   [Expired_grant], naming that grant's delegate, where the old second
   pass looked only at grants naming the signer. *)
module Model = struct
  type t = {
    root : Principal.t;
    mutable known_grants : Delegation.t list;
    revoked : (string, unit) Hashtbl.t;
  }

  let create ~root = { root; known_grants = []; revoked = Hashtbl.create 8 }
  let add_grant t g = t.known_grants <- g :: t.known_grants
  let revoke t pid = Hashtbl.replace t.revoked pid ()
  let scope_certification = "kernel-certification"

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
                  (fun g ->
                    if
                      String.equal (Principal.id g.Delegation.delegate) p
                      && String.equal g.Delegation.scope scope_certification
                      && Delegation.well_signed g
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
    if not (Certificate.matches_code cert code) then Validator.Invalid Validator.Digest_mismatch
    else if not (Certificate.well_signed cert) then Validator.Invalid Validator.Bad_signature
    else if Hashtbl.mem t.revoked signer_id then
      Validator.Invalid (Validator.Revoked_principal signer_id)
    else begin
      match chain_to_root t signer_id ~now with
      | Ok depth -> Validator.Valid { chain_length = depth }
      | Error (Some d) -> Validator.Invalid (Validator.Expired_grant d)
      | Error None -> Validator.Invalid (Validator.Untrusted_signer signer_id)
    end
end

(* a fixed pool of principals; index 0 is the validators' root *)
let pool =
  lazy
    (let r = Prng.create ~seed:4242 in
     Array.init 5 (fun i ->
         let key = Rsa.generate r ~bits:key_bits in
         (key, Principal.make (Printf.sprintf "p%d" i) key.Rsa.pub)))

type taught =
  | Genuine
  | Expiring of int
  | Out_of_scope
  | Forged of int  (** a genuine grant's signature on a grant to this delegate *)

type presented =
  | Intact
  | Tampered  (** the code changed after signing *)
  | Spoofed of int  (** signed with the signer's key, but naming this principal *)

type step =
  | Teach of taught * int * int  (** grantor, delegate *)
  | Revoke of int
  | Validate of int * int * presented  (** signer, time *)
  | Repeat  (** the last validation again *)

let show_step = function
  | Teach (k, a, b) ->
    let k =
      match k with
      | Genuine -> "genuine"
      | Expiring e -> Printf.sprintf "expiring@%d" e
      | Out_of_scope -> "out-of-scope"
      | Forged c -> Printf.sprintf "forged->p%d" c
    in
    Printf.sprintf "teach %s p%d->p%d" k a b
  | Revoke p -> Printf.sprintf "revoke p%d" p
  | Validate (s, now, how) ->
    Printf.sprintf "validate p%d@%d%s" s now
      (match how with
      | Intact -> ""
      | Tampered -> " tampered"
      | Spoofed c -> Printf.sprintf " spoofing p%d" c)
  | Repeat -> "repeat"

let gen_step =
  let open QCheck2.Gen in
  let who = int_bound 4 in
  let taught =
    frequency
      [ (3, pure Genuine); (2, map (fun e -> Expiring e) (int_bound 99));
        (1, pure Out_of_scope); (1, map (fun c -> Forged c) who) ]
  in
  (* mostly toward the root, so that chains form; any pair otherwise,
     so that cycles and dead ends do too *)
  let grantor_delegate =
    frequency
      [ (3, int_range 1 4 >>= fun b -> map (fun a -> (a, b)) (int_bound (b - 1)));
        (1, pair who who) ]
  in
  let presented =
    frequency [ (6, pure Intact); (1, pure Tampered); (1, map (fun c -> Spoofed c) who) ]
  in
  frequency
    [
      (5, map2 (fun k (a, b) -> Teach (k, a, b)) taught grantor_delegate);
      (1, map (fun p -> Revoke p) who);
      (4, map3 (fun s now how -> Validate (s, now, how)) who (int_bound 99) presented);
      (2, pure Repeat);
    ]

(* Run one program on a validator and on the model. Every decision must
   be the model's. A validation checks at most the certificate's
   signature, once the digest matches, plus each taught grant not yet
   checked; a repeat with nothing taught or revoked since checks only
   the certificate's. Revocations count as changes: one can cut the
   chain the search stopped at and send it on to grants it never
   reached. *)
let validator_agrees_with_model steps =
  let pool = Lazy.force pool in
  let key i = fst pool.(i) and who i = snd pool.(i) in
  let v = Validator.create ~root:(who 0) and m = Model.create ~root:(who 0) in
  let taught = ref 0 and cert_checks = ref 0 in
  let last = ref None and unchanged = ref false in
  let grant ?expires ?(scope = "kernel-certification") a b =
    Delegation.grant (key a) ~grantor:(who a) ~delegate:(who b) ~scope ?expires ()
  in
  let validate ((cert, code, now) as call) =
    let digest_ok = Certificate.matches_code cert code in
    let before = Validator.signatures_checked v in
    let unchecked = !taught - (before - !cert_checks) in
    let decision = Validator.validate v cert ~code ~now in
    if digest_ok then incr cert_checks;
    let checked = Validator.signatures_checked v - before in
    let repeat = !last = Some call && !unchanged in
    last := Some call;
    unchanged := true;
    decision = Model.validate m cert ~code ~now
    && checked <= Bool.to_int digest_ok + unchecked
    && ((not repeat) || checked = Bool.to_int digest_ok)
  in
  List.for_all
    (function
      | Teach (kind, a, b) ->
        let g =
          match kind with
          | Genuine -> grant a b
          | Expiring e -> grant ~expires:e a b
          | Out_of_scope -> grant ~scope:"kernel-debugging" a b
          | Forged c -> { (grant a b) with Delegation.delegate = who c }
        in
        Validator.add_grant v g;
        Model.add_grant m g;
        incr taught;
        unchanged := false;
        true
      | Revoke p ->
        Validator.revoke v (Principal.id (who p));
        Model.revoke m (Principal.id (who p));
        unchanged := false;
        true
      | Validate (s, now, how) ->
        let code = "component code" in
        let signer = match how with Spoofed c -> who c | Intact | Tampered -> who s in
        let cert =
          Certificate.issue (key s) ~signer ~component:"c" ~digest:(Sha256.digest code)
            ~issued_at:0
        in
        validate (cert, (if how = Tampered then "tampered code" else code), now)
      | Repeat -> ( match !last with None -> true | Some call -> validate call))
    steps

(* --- properties --------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:30 ~name gen f)

let shared_fixture = lazy (fixture ())

let props =
  [
    prop "no tampered component ever validates"
      QCheck2.Gen.(pair (string_size (int_range 1 64)) (int_bound 63))
      (fun (code, at) ->
        let f = Lazy.force shared_fixture in
        let v = validator_of f in
        let cert = certify_exn f (meta ~type_safe:true "p") ~code ~now:1 in
        let at = at mod String.length code in
        let tampered =
          String.mapi
            (fun i c -> if i = at then Char.chr (Char.code c lxor 0x80) else c)
            code
        in
        match Validator.validate v cert ~code:tampered ~now:2 with
        | Validator.Invalid Validator.Digest_mismatch -> true
        | _ -> false);
    prop "certification is deterministic in the metadata"
      QCheck2.Gen.(pair bool (string_size (int_range 1 16)))
      (fun (ts, name) ->
        let f = Lazy.force shared_fixture in
        let m = meta ~type_safe:ts name in
        let o1 = Authority.certify f.auth m ~code:"c" ~now:1 in
        let o2 = Authority.certify f.auth m ~code:"c" ~now:1 in
        o1.Authority.trail = o2.Authority.trail);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"validator decides as a model that re-verifies everything"
         ~print:(fun steps -> String.concat "; " (List.map show_step steps))
         QCheck2.Gen.(list_size (int_range 1 30) gen_step)
         validator_agrees_with_model);
  ]

let () =
  Alcotest.run "secure"
    [
      ("principal", [ Alcotest.test_case "identity" `Quick test_principal_identity ]);
      ( "certificate",
        [ Alcotest.test_case "sign/verify/tamper" `Quick test_certificate_sign_verify ] );
      ( "delegation",
        [ Alcotest.test_case "statements" `Quick test_delegation_statements ] );
      ( "authority",
        [
          Alcotest.test_case "first delegate wins" `Quick test_certify_first_delegate;
          Alcotest.test_case "escape hatch" `Quick test_certify_escape_hatch;
          Alcotest.test_case "all decline" `Quick test_certify_all_decline;
          Alcotest.test_case "policy zoo" `Quick test_policies;
        ] );
      ( "validator",
        [
          Alcotest.test_case "accepts valid chain" `Quick test_validate_accepts_chain;
          Alcotest.test_case "rejects tampered code" `Quick
            test_validate_rejects_tampered_code;
          Alcotest.test_case "rejects unknown signer" `Quick
            test_validate_rejects_unknown_signer;
          Alcotest.test_case "rejects revoked" `Quick test_validate_rejects_revoked;
          Alcotest.test_case "rejects expired grant" `Quick
            test_validate_rejects_expired_grant;
          Alcotest.test_case "multi-hop chain" `Quick test_validate_multi_hop_chain;
          Alcotest.test_case "expired intermediate grant" `Quick
            test_validate_expired_intermediate_grant;
          Alcotest.test_case "forged copy of a checked grant" `Quick
            test_validate_forged_copy_of_checked_grant;
          Alcotest.test_case "grant taught twice" `Quick test_validate_grant_taught_twice;
          Alcotest.test_case "forged copy taught with its original" `Quick
            test_validate_forged_copy_taught_with_original;
          Alcotest.test_case "self-signed rejected" `Quick
            test_validate_self_signed_rejected;
        ] );
      ("properties", props);
    ]

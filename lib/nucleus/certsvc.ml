module Machine = Pm_machine.Machine
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost
module Validator = Pm_secure.Validator

type t = {
  machine : Machine.t;
  validator : Validator.t;
  mutable validations : int;
  mutable failures : int;
  mutable verifications : int;
  mutable verify_failures : int;
}

let create machine ~root =
  {
    machine;
    validator = Validator.create ~root;
    validations = 0;
    failures = 0;
    verifications = 0;
    verify_failures = 0;
  }

let root t = Validator.root t.validator
let add_grant t g = Validator.add_grant t.validator g
let revoke t pid = Validator.revoke t.validator pid

let validate t cert ~code =
  let clock = Machine.clock t.machine in
  let costs = Machine.costs t.machine in
  (* load-time cost: digest the whole component, then one public-key
     verification per signature the validator checked on this call *)
  Clock.advance clock (String.length code * costs.Cost.digest_byte);
  Clock.bump clock Clock.Cert_validation;
  let checked = Validator.signatures_checked t.validator in
  let decision = Validator.validate t.validator cert ~code ~now:(Clock.now clock) in
  Clock.advance clock
    ((Validator.signatures_checked t.validator - checked) * costs.Cost.sig_verify);
  (match decision with
  | Validator.Valid _ -> t.validations <- t.validations + 1
  | Validator.Invalid _ ->
    Clock.bump clock Clock.Cert_rejection;
    t.failures <- t.failures + 1);
  decision

let validations t = t.validations
let failures t = t.failures

(* The third trust mechanism: statically prove the bytecode safe instead
   of trusting a signer (validate) or paying per access (SFI). One-off
   cost is the abstract interpretation, charged per instruction like the
   digest is charged per byte — no signature verification anywhere. *)
let verify t ~code =
  let clock = Machine.clock t.machine in
  let costs = Machine.costs t.machine in
  match Pm_vm.Vm.decode code with
  | Error e ->
    Clock.bump clock Clock.Bytecode_rejection;
    t.verify_failures <- t.verify_failures + 1;
    Error ("undecodable object code: " ^ e)
  | Ok program -> (
    Clock.advance clock (Array.length program * costs.Cost.verify_instr);
    Clock.bump clock Clock.Bytecode_verification;
    match Pm_check.Verify.verify program with
    | Pm_check.Verify.Verified { fuel; _ } ->
      t.verifications <- t.verifications + 1;
      Ok fuel
    | Pm_check.Verify.Rejected _ as v ->
      Clock.bump clock Clock.Bytecode_rejection;
      t.verify_failures <- t.verify_failures + 1;
      Error (Pm_check.Verify.verdict_to_string v))

let verifications t = t.verifications
let verify_failures t = t.verify_failures

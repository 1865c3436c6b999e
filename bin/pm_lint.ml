(* pm_lint — assemble a demo composition and run the Pm_check
   composition linter over it.

   Exit status: 0 = clean, 1 = the linter reported errors, 2 = usage.

   [--seed non-superset|spsc|store-order|store-dangling]
   first injects the named violation using raw primitives (dodging the
   load-time guards that normally prevent it), so `make lint` and CI
   can assert the linter actually catches what it claims to catch.

   [--json] prints the report as one line of JSON instead of prose —
   what CI parses into per-finding annotations. *)

open Paramecium

let usage =
  "usage: pm_lint [--seed non-superset|spsc|store-order|store-dangling] \
   [--quiet] [--json]"

(* A deliberately-shrunken replacement installed with the raw directory
   primitive — exactly the hole Interpose.attach closes and the linter
   exists to catch after the fact. *)
let seed_non_superset sys =
  let k = System.kernel sys in
  let api = System.api sys in
  let kdom = Kernel.kernel_domain k in
  let impostor =
    Instance.create api.Api.registry ~class_name:"impostor"
      ~domain:kdom.Domain.id
      [ Iface.make ~name:"unrelated" [] ]
  in
  match
    Directory.replace (Kernel.directory k)
      (Path.of_string "/services/stack")
      impostor
  with
  | Ok _ -> ()
  | Error e -> failwith (Directory.bind_error_to_string e)

(* Feed one channel from two MMU contexts: the single-producer half of
   the SPSC contract, violated by hand. *)
let seed_spsc sys =
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let udom = System.new_domain sys "rogue-producer" in
  let chan =
    Chan.create (Kernel.machine k) (Kernel.vmem k) ~name:"seeded-spsc"
      ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  let mmu = Machine.mmu (Kernel.machine k) in
  let home = Mmu.current_context mmu in
  ignore (Chan.try_send chan (Bytes.of_string "one"));
  Mmu.switch_context mmu udom.Domain.id;
  ignore (Chan.try_send chan (Bytes.of_string "two"));
  Mmu.switch_context mmu home

(* Boot the storage stack, then wire a write-back cache directly above
   the append-only log — the storage inversion the store-order rule
   exists to catch. *)
let seed_store_order sys =
  ignore (System.setup_store sys ~placement:System.Certified ());
  let kdom = Kernel.kernel_domain (System.kernel sys) in
  ignore
    (Block_cache.create (System.api sys) kdom ~name:"bad-cache"
       ~lower:"/store/log0" ~capacity:4 ())

(* Revoke a bound component without the factory's detach protocol,
   leaving its /store endpoint dangling. *)
let seed_store_dangling sys =
  ignore (System.setup_store sys ~placement:System.Certified ());
  match
    Storereg.find ~machine:(Kernel.machine (System.kernel sys)) "cache0"
  with
  | Some e -> Instance.revoke e.Storereg.instance
  | None -> failwith "pm_lint: cache0 not registered"

(* The demo composition: networking in the kernel, a monitoring
   interposer on the driver (a proper superset, so attach admits it),
   and the driver->stack receive path over a shared-memory channel. *)
let build_demo () =
  let sys = System.create () in
  let k = System.kernel sys in
  let net =
    System.setup_networking sys ~placement:System.Certified ~addr:42
      ~loopback:true ()
  in
  let kdom = Kernel.kernel_domain k in
  let agent =
    Interpose.packet_monitor (System.api sys) kdom ~target:net.System.driver
  in
  (match Interpose.attach (System.api sys) ~path:"/services/netdrv" ~agent with
  | Ok _ -> ()
  | Error e -> failwith ("pm_lint: attach failed: " ^ e));
  ignore (System.channel_rx sys net ());
  Kernel.step k ~ticks:4 ();
  sys

let () =
  let seed = ref None and quiet = ref false and json = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := Some v;
      parse rest
    | "--quiet" :: rest ->
      quiet := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | a :: _ ->
      prerr_endline ("pm_lint: unknown argument " ^ a);
      prerr_endline usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sys = build_demo () in
  (match !seed with
  | None -> ()
  | Some "non-superset" -> seed_non_superset sys
  | Some "spsc" -> seed_spsc sys
  | Some "store-order" -> seed_store_order sys
  | Some "store-dangling" -> seed_store_dangling sys
  | Some s ->
    prerr_endline ("pm_lint: unknown seed " ^ s);
    prerr_endline usage;
    exit 2);
  let report = Check_svc.run (System.check sys) in
  if !json then print_endline (Lint.report_to_json report)
  else if not !quiet then print_endline (Lint.report_to_string report);
  exit (match Lint.errors report with [] -> 0 | _ -> 1)

(* Tests for the nucleus: domains, event service, memory service,
   proxies, directory service, certification service, loader, kernel. *)

open Paramecium

let value = Alcotest.testable Value.pp Value.equal

(* a system with unit costs so cycle arithmetic is easy to reason about *)
let sys_fixture () = System.create ~costs:Cost.unit_costs ~key_bits:384 ()

let kernel_fixture () =
  let sys = sys_fixture () in
  System.kernel sys

(* a counter component usable as a loadable image *)
let counter_construct (api : Api.t) (dom : Domain.t) =
  let state = ref 0 in
  let iface =
    Iface.make ~name:"counter"
      [
        Iface.meth ~name:"incr" ~args:[ Vtype.Tint ] ~ret:Vtype.Tunit
          (fun _ctx -> function
            | [ Value.Int by ] ->
              state := !state + by;
              Ok Value.Unit
            | _ -> Error (Oerror.Type_error "incr(int)"));
        Iface.meth ~name:"get" ~args:[] ~ret:Vtype.Tint (fun _ctx -> function
          | [] -> Ok (Value.Int !state)
          | _ -> Error (Oerror.Type_error "get()"));
      ]
  in
  Instance.create api.Api.registry ~class_name:"test.counter" ~domain:dom.Domain.id
    [ iface ]

let counter_image ?(name = "counter") ?(type_safe = true) () =
  Images.image ~name ~size:2048 ~author:"kernel-team" ~type_safe counter_construct

(* --- lifecycle: unload returns what load and bind took ------------------ *)

(* a component whose constructor takes pages: two shared pages in its own
   domain, the first with a fault call-back, and from a user domain a
   read-only mapping of that page into the kernel *)
let paged_construct (api : Api.t) (dom : Domain.t) =
  let vmem = api.Api.vmem in
  let vaddr = Vmem.alloc_pages vmem dom ~count:2 ~sharing:Vmem.Shared in
  Vmem.set_fault_callback vmem dom ~vaddr (fun _ -> false);
  if not (Domain.is_kernel dom) then
    ignore
      (Vmem.map_shared vmem ~from_dom:dom ~vaddr ~count:1 ~into:api.Api.kernel_domain
         ~prot:Mmu.Read_only);
  counter_construct api dom

type place = In_kernel | Sandboxed | In_user of int

type step =
  | Install of place * bool * int  (** where, paged, slot *)
  | Bind of int * int  (** slot, importing domain (0 is the kernel's) *)
  | Call of int  (** a binding held since an earlier step *)
  | Unload of int
  | Abort of { place : place; paged : bool; interpose : int option; bind : (int * int) option }
      (** a transaction installs, aliases, maybe interposes on a slot and
          binds one from another domain, then aborts *)

let show_place = function
  | In_kernel -> "kernel"
  | Sandboxed -> "sandboxed"
  | In_user i -> Printf.sprintf "u%d" (i + 1)

let show_step = function
  | Install (p, paged, s) ->
    Printf.sprintf "install%s %s @%d" (if paged then " paged" else "") (show_place p) s
  | Bind (s, d) -> Printf.sprintf "bind @%d from %d" s d
  | Call i -> Printf.sprintf "call #%d" i
  | Unload s -> Printf.sprintf "unload @%d" s
  | Abort { place; paged; interpose; bind } ->
    Printf.sprintf "abort(install%s %s%s%s)"
      (if paged then " paged" else "")
      (show_place place)
      (match interpose with Some s -> Printf.sprintf ", interpose @%d" s | None -> "")
      (match bind with Some (s, d) -> Printf.sprintf ", bind @%d from %d" s d | None -> "")

let slots = 4

let gen_step =
  let open QCheck2.Gen in
  let slot = int_bound (slots - 1) and dom = int_bound 2 in
  let place =
    frequency
      [ (3, pure In_kernel); (1, pure Sandboxed); (2, map (fun i -> In_user i) (int_bound 1)) ]
  in
  frequency
    [
      (4, map3 (fun p paged s -> Install (p, paged, s)) place bool slot);
      (4, map2 (fun s d -> Bind (s, d)) slot dom);
      (3, map (fun i -> Call i) (int_bound 15));
      (3, map (fun s -> Unload s) slot);
      ( 2,
        map4
          (fun place paged interpose bind -> Abort { place; paged; interpose; bind })
          (oneofl [ In_kernel; Sandboxed; In_user 0; In_user 1 ])
          bool (opt slot) (opt (pair slot dom)) );
    ]

(* One boot for every case: two user domains, and the images certified
   once. *)
type law = {
  lsys : System.t;
  doms : Domain.t array; (* kernel, u1, u2 *)
  certified : Loader.image array; (* plain, paged *)
  bare : Loader.image array; (* the same, uncertified, for the sandbox *)
}

let law =
  lazy
    (let lsys = System.create ~key_bits:384 () in
     let k = System.kernel lsys in
     let u1 = System.new_domain lsys "u1" and u2 = System.new_domain lsys "u2" in
     let image name construct =
       Images.image ~name ~size:512 ~author:"kernel-team" ~type_safe:true construct
     in
     let bare = [| image "law-plain" counter_construct; image "law-paged" paged_construct |] in
     let certified =
       Array.map (fun i -> fst (Images.certify (System.authority lsys) ~now:0 i)) bare
     in
     { lsys; doms = [| Kernel.kernel_domain k; u1; u2 |]; certified; bare })

let slot_path s = Path.of_string (Printf.sprintf "/law/%d" s)

(* everything a load, a bind or a transaction can take *)
let taken k =
  let names = ref [] in
  Namespace.iter (Directory.namespace (Kernel.directory k)) (fun p h ->
      names := (Path.to_string p, h) :: !names);
  ( Physmem.free_frames (Machine.phys (Kernel.machine k)),
    Registry.size (Kernel.api k).Api.registry,
    List.sort compare !names,
    Vmem.alloc_keys (Kernel.vmem k),
    Directory.proxy_count (Kernel.directory k),
    Directory.replacements (Kernel.directory k) )

(* Run one case, then unload what is left. Every step's result must be
   the model's: which slots hold a load, and which bindings still reach
   one. Afterwards everything [taken] reads must be as before, and the
   case's structural records must hold a Detach for each Install. *)
let lifecycle_law steps =
  let law = Lazy.force law in
  let sys = law.lsys in
  let k = System.kernel sys in
  let loader = Kernel.loader k and api = Kernel.api k in
  let journal = Obs.journal (Clock.obs (Kernel.clock k)) in
  let before = taken k and first_seq = Journal.written journal in
  let loaded = Array.make slots None and generation = ref 0 in
  let held = ref [] in
  let expect what ok = if not ok then failwith what in
  let image place paged =
    let images = if place = Sandboxed then law.bare else law.certified in
    images.(if paged then 1 else 0)
  in
  let into = function
    | In_kernel | Sandboxed -> law.doms.(0)
    | In_user i -> law.doms.(i + 1)
  in
  let load place paged at =
    let image = image place paged in
    Loader.publish loader image;
    let sandbox =
      if place = Sandboxed then Some (Sandbox.for_loader api.Api.registry) else None
    in
    Loader.load loader ~name:image.Loader.meta.Meta.name ~into:(into place) ~at ?sandbox ()
  in
  let step = function
    | Install (place, paged, s) ->
      (match (load place paged (slot_path s), loaded.(s)) with
      | Ok _, None ->
        incr generation;
        loaded.(s) <- Some !generation
      | Error (Loader.Name_taken _), Some _ -> ()
      | _ -> failwith "install")
    | Bind (s, d) ->
      (match (Api.bind api law.doms.(d) (slot_path s), loaded.(s)) with
      | Ok inst, Some g -> held := (inst, d, s, g) :: !held
      | Error (Directory.Name _), None -> ()
      | _ -> failwith "bind")
    | Call i ->
      if !held <> [] then begin
        let inst, d, s, g = List.nth !held (i mod List.length !held) in
        match
          ( Invoke.call (Kernel.ctx k law.doms.(d)) inst ~iface:"counter" ~meth:"incr"
              [ Value.Int 1 ],
            loaded.(s) = Some g )
        with
        | Ok _, true | Error Oerror.Revoked, false -> ()
        | _ -> failwith "call"
      end
    | Unload s ->
      (match (Loader.unload loader (slot_path s), loaded.(s)) with
      | Ok (), Some _ -> loaded.(s) <- None
      | Error _, None -> ()
      | _ -> failwith "unload")
    | Abort { place; paged; interpose; bind } ->
      let placement =
        match place with
        | In_kernel -> System.Certified
        | Sandboxed -> System.Sandboxed
        | In_user i -> System.User law.doms.(i + 1)
      in
      let outcome =
        System.transact sys "law" (fun txn ->
            match System.txn_install txn (image place paged) ~placement ~at:"/law/txn" with
            | Error e -> Error ("install: " ^ e)
            | Ok inst ->
              (match System.txn_register txn "/law/alias" inst with
              | Error e -> Error ("register: " ^ e)
              | Ok () ->
                let interposed =
                  match interpose with
                  | Some s when loaded.(s) <> None ->
                    Result.map ignore
                      (System.txn_interpose txn (Path.to_string (slot_path s)) inst)
                  | Some _ | None -> Ok ()
                in
                (match (interposed, bind) with
                | Error e, _ -> Error ("interpose: " ^ e)
                | Ok (), Some (s, d) when loaded.(s) <> None ->
                  (match Api.bind api law.doms.(d) (slot_path s) with
                  | Ok _ -> Error "abort"
                  | Error e -> Error ("bind: " ^ Directory.bind_error_to_string e))
                | Ok (), _ -> Error "abort"))
        )
      in
      expect "the transaction aborts as asked" (outcome = Error "abort")
  in
  List.iter step steps;
  Array.iteri
    (fun s l ->
      if l <> None then expect "unload what is left" (Loader.unload loader (slot_path s) = Ok ()))
    loaded;
  expect "everything taken is returned" (taken k = before);
  let handles kind =
    List.filter_map
      (fun (e : Journal.event) ->
        if e.Journal.seq >= first_seq && e.Journal.kind = kind then Some e.Journal.info
        else None)
      (Journal.structural journal)
    |> List.sort compare
  in
  expect "a Detach for each Install" (handles Journal.Install = handles Journal.Detach);
  true

(* One boot, one image certified once: every round loads it, binds it
   from the other domain, calls it and unloads it. Odd rounds load it
   into the kernel, which checks its certificate, and bind it from a
   user domain; even rounds the other way round. Every unload returns
   the frames; a domain made after the churn, whose instance sits past
   20,000 freed handles, is still torn down whole. *)
let test_lifecycle_soak () =
  let sys = System.create ~key_bits:384 () in
  let k = System.kernel sys in
  let api = Kernel.api k and loader = Kernel.loader k in
  let kdom = Kernel.kernel_domain k and udom = System.new_domain sys "soak" in
  let phys = Machine.phys (Kernel.machine k) in
  let image, _ =
    Images.certify (System.authority sys) ~now:0
      (Images.image ~name:"soak" ~size:256 ~author:"kernel-team" ~type_safe:true
         counter_construct)
  in
  Loader.publish loader image;
  let path = Path.of_string "/soak" and frames = Physmem.free_frames phys in
  for round = 1 to 10_000 do
    let ok what = function
      | Ok x -> x
      | Error _ -> Alcotest.failf "round %d: %s failed" round what
    in
    let into, from = if round land 1 = 1 then (kdom, udom) else (udom, kdom) in
    ignore (ok "load" (Loader.load loader ~name:"soak" ~into ~at:path ()));
    let proxy = ok "bind" (Api.bind api from path) in
    ignore
      (ok "call"
         (Invoke.call (Kernel.ctx k from) proxy ~iface:"counter" ~meth:"incr" [ Value.Int 1 ]));
    ok "unload" (Loader.unload loader path);
    if Physmem.free_frames phys <> frames then
      Alcotest.failf "round %d: %d frames free, %d at boot" round
        (Physmem.free_frames phys) frames
  done;
  Alcotest.(check int) "no proxies left" 0 (Directory.proxy_count (Kernel.directory k));
  let late = Kernel.create_domain k ~name:"late" () in
  let inst = counter_construct api late in
  Kernel.destroy_domain k late;
  Alcotest.(check bool) "the late domain's instance is revoked" true inst.Instance.revoked

let load_ok k ?(into = Kernel.kernel_domain k) image at =
  let loader = Kernel.loader k in
  Loader.publish loader image;
  match Loader.load loader ~name:image.Loader.meta.Meta.name ~into ~at:(Path.of_string at) () with
  | Ok inst -> inst
  | Error e -> Alcotest.failf "load %s: %s" at (Loader.load_error_to_string e)

let unload_ok k at =
  match Loader.unload (Kernel.loader k) (Path.of_string at) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unload %s: %s" at (Loader.load_error_to_string e)

let same_as before what k = Alcotest.(check bool) what true (taken k = before)

(* a load refused its name returns its pages and registry slots *)
let test_lifecycle_failed_load () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "u" in
  let paged = Images.image ~name:"paged" ~size:512 paged_construct in
  ignore (load_ok k ~into:udom paged "/svc/p");
  let before = taken k in
  (match
     Loader.load (Kernel.loader k) ~name:"paged" ~into:udom ~at:(Path.of_string "/svc/p") ()
   with
  | Error (Loader.Name_taken _) -> ()
  | _ -> Alcotest.fail "a taken name must refuse the load");
  same_as before "nothing kept" k

(* a proxy a transaction bound to a surviving target leaves with the
   rollback, so the target's unload later frees its page once *)
let test_lifecycle_rollback_drops_proxies () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "u" in
  let base = taken k in
  ignore (System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c");
  let before = taken k in
  (match
     System.transact sys "bind-then-abort" (fun _ ->
         match Api.bind (Kernel.api k) udom (Path.of_string "/svc/c") with
         | Ok p when Proxy.is_proxy p -> Error "abort"
         | _ -> Error "no proxy")
   with
  | Error "abort" -> ()
  | _ -> Alcotest.fail "the transaction must abort after its bind");
  same_as before "the bind is rolled back" k;
  unload_ok k "/svc/c";
  same_as base "and the load unloaded" k

(* a proxy bound by a constructor belongs to the bind, not to the load:
   unloading the component leaves it, unloading its target returns it *)
let test_lifecycle_constructor_binds () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "u" in
  let base = taken k in
  ignore (System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c");
  let binder api dom =
    ignore (Api.bind_exn api dom (Path.of_string "/svc/c"));
    paged_construct api dom
  in
  ignore (load_ok k ~into:udom (Images.image ~name:"binder" ~size:512 binder) "/svc/b");
  unload_ok k "/svc/b";
  Alcotest.(check int) "the constructor's proxy stays" 1
    (Directory.proxy_count (Kernel.directory k));
  let proxy = Kernel.bind k udom "/svc/c" in
  Alcotest.check value "and still reaches its target" Value.Unit
    (Invoke.call_exn (Kernel.ctx k udom) proxy ~iface:"counter" ~meth:"incr" [ Value.Int 1 ]);
  unload_ok k "/svc/c";
  same_as base "all returned" k

(* a constructor that raises returns what it took before it raised: its
   pages, the proxy it bound and the instance it made *)
let test_lifecycle_constructor_raises () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "u" in
  ignore (System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c");
  let before = taken k in
  let failing api dom =
    ignore (Api.bind_exn api dom (Path.of_string "/svc/c"));
    ignore (paged_construct api dom);
    failwith "the constructor gives up"
  in
  let loader = Kernel.loader k in
  Loader.publish loader (Images.image ~name:"failing" ~size:512 failing);
  (match Loader.load loader ~name:"failing" ~into:udom ~at:(Path.of_string "/svc/f") () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the constructor's exception reaches the caller");
  same_as before "nothing kept" k

(* a composite's constructor makes its children too: unloading it
   returns every registry slot the load made *)
let test_lifecycle_composite_load () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  ignore (System.setup_networking sys ~placement:System.Certified ~addr:42 ());
  unload_ok k "/services/stack";
  let before = taken k and registry = (Kernel.api k).Api.registry in
  let slots = Registry.size registry in
  let stack =
    Images.image ~name:"protostack" ~size:24_576 ~author:"kernel-team" ~type_safe:true
      (Images.stack_construct ~addr:42 ~driver_path:"/services/netdrv")
  in
  ignore (System.install_exn sys stack ~placement:System.Certified ~at:"/services/stack");
  Alcotest.(check bool) "the load makes more than its own slot" true
    (Registry.size registry > slots + 1);
  unload_ok k "/services/stack";
  Alcotest.(check int) "every slot comes back" slots (Registry.size registry);
  same_as before "and everything else" k

(* destroying an importer takes its proxies out of the directory, so the
   target's unload frees no page the domain's teardown already freed *)
let test_lifecycle_destroy_importer () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let base = taken k in
  ignore (System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c");
  let udom = Kernel.create_domain k ~name:"importer" () in
  ignore (Kernel.bind k udom "/svc/c");
  Kernel.destroy_domain k udom;
  Alcotest.(check int) "its proxy is gone" 0 (Directory.proxy_count (Kernel.directory k));
  unload_ok k "/svc/c";
  same_as base "all returned" k

(* a full memory is a bind error, and the bind takes nothing *)
let test_lifecycle_bind_without_frames () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "u" in
  ignore (System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c");
  let kdom = Kernel.kernel_domain k in
  let free = Physmem.free_frames (Machine.phys (Kernel.machine k)) in
  ignore (Vmem.alloc_pages (Kernel.vmem k) kdom ~count:free ~sharing:Vmem.Exclusive);
  let before = taken k in
  (match Api.bind (Kernel.api k) udom (Path.of_string "/svc/c") with
  | Error (Directory.No_memory _) -> ()
  | Ok _ -> Alcotest.fail "no frame is free for an entry page"
  | Error e -> Alcotest.failf "wrong error: %s" (Directory.bind_error_to_string e));
  same_as before "nothing taken" k

(* --- events ------------------------------------------------------------- *)

let test_events_callbacks () =
  let k = kernel_fixture () in
  let ev = Kernel.events k in
  let kdom = Kernel.kernel_domain k in
  let seen = ref [] in
  let id1 = Events.register ev (Events.Irq 3) ~domain:kdom (fun arg -> seen := ("a", arg) :: !seen) in
  let _id2 = Events.register ev (Events.Irq 3) ~domain:kdom (fun arg -> seen := ("b", arg) :: !seen) in
  Machine.raise_irq (Kernel.machine k) 3;
  Alcotest.(check (list (pair string int)))
    "both callbacks, registration order"
    [ ("a", 0); ("b", 0) ]
    (List.rev !seen);
  Alcotest.(check int) "deliveries" 2 (Events.deliveries ev);
  Events.unregister ev id1;
  Alcotest.(check int) "one left" 1 (Events.callbacks ev (Events.Irq 3));
  Machine.raise_irq (Kernel.machine k) 3;
  Alcotest.(check int) "only b fires" 3 (List.length !seen)

let test_events_trap_dispatch () =
  let k = kernel_fixture () in
  let ev = Kernel.events k in
  let kdom = Kernel.kernel_domain k in
  let arg_seen = ref (-1) in
  ignore (Events.register ev (Events.Trap 5) ~domain:kdom (fun arg -> arg_seen := arg));
  ignore (Machine.raise_trap (Kernel.machine k) 5 77);
  Alcotest.(check int) "trap argument" 77 !arg_seen

let test_events_cross_domain_delivery_switches () =
  let k = kernel_fixture () in
  let ev = Kernel.events k in
  let udom = Kernel.create_domain k ~name:"u" () in
  let observed = ref (-1) in
  ignore
    (Events.register ev (Events.Irq 4) ~domain:udom (fun _ ->
         observed := Mmu.current_context (Machine.mmu (Kernel.machine k))));
  let before = Mmu.current_context (Machine.mmu (Kernel.machine k)) in
  Machine.raise_irq (Kernel.machine k) 4;
  Alcotest.(check int) "ran in callback's domain" udom.Domain.id !observed;
  Alcotest.(check int) "restored afterwards" before
    (Mmu.current_context (Machine.mmu (Kernel.machine k)))

let test_events_popup_redirection () =
  let k = kernel_fixture () in
  let ev = Kernel.events k in
  let kdom = Kernel.kernel_domain k in
  let sched = Kernel.sched k in
  let ran = ref 0 in
  ignore
    (Events.register_popup ev (Events.Irq 6) ~domain:kdom ~sched (fun _ -> incr ran));
  let popups_before = Scheduler.stats sched `Popups in
  Machine.raise_irq (Kernel.machine k) 6;
  Alcotest.(check int) "ran as proto-thread" 1 !ran;
  Alcotest.(check int) "popup counted" (popups_before + 1) (Scheduler.stats sched `Popups)

(* Call-backs on the doorbell vector, each from one of three domains and
   for one channel id or for any argument, in random order; then traps
   with random ids, each raised from a random current domain, with
   tracing on or off. A trap reaches exactly the call-backs for its id
   and the unfiltered ones, in registration order, and the only context
   switches are the two around each delivery into another domain. *)
let doorbell_case =
  lazy
    (let k = kernel_fixture () in
     let doms =
       [| Kernel.kernel_domain k; Kernel.create_domain k ~name:"a" ();
          Kernel.create_domain k ~name:"b" () |]
     in
     (k, doms))

let gen_doorbells =
  QCheck2.Gen.(
    triple bool
      (list_size (int_range 1 8) (pair (int_bound 2) (opt (int_range 1 4))))
      (list_size (int_range 1 6) (pair (int_bound 2) (int_range 1 5))))

let print_doorbells (traced, regs, traps) =
  let id = function Some i -> string_of_int i | None -> "any" in
  Printf.sprintf "%s; registered [%s]; raised [%s]"
    (if traced then "traced" else "untraced")
    (String.concat "; " (List.map (fun (d, i) -> Printf.sprintf "d%d:%s" d (id i)) regs))
    (String.concat "; " (List.map (fun (d, a) -> Printf.sprintf "d%d:%d" d a) traps))

let doorbells_hold (traced, regs, traps) =
  let k, doms = Lazy.force doorbell_case in
  let ev = Kernel.events k and m = Kernel.machine k in
  let mmu = Machine.mmu m and clock = Kernel.clock k in
  let event = Events.Trap Chan.doorbell_vec in
  if Events.callbacks ev event <> 0 then failwith "the vector starts empty";
  let obs = Clock.obs clock in
  if traced then Obs.enable obs;
  let seen = ref [] in
  let ids =
    List.mapi
      (fun i (d, arg) ->
        Events.register ?arg ev event ~domain:doms.(d) (fun _ ->
            seen := (i, Mmu.current_context mmu) :: !seen))
      regs
  in
  let holds =
    List.for_all
      (fun (cur, arg) ->
        Mmu.switch_context mmu doms.(cur).Domain.id;
        seen := [];
        let switches = Clock.read clock Clock.Context_switch in
        ignore (Machine.raise_trap m Chan.doorbell_vec arg);
        let expected =
          List.concat
            (List.mapi
               (fun i (d, id) ->
                 if id = None || id = Some arg then [ (i, doms.(d).Domain.id) ] else [])
               regs)
        in
        let crossings =
          List.length (List.filter (fun (_, d) -> d <> doms.(cur).Domain.id) expected)
        in
        List.rev !seen = expected
        && Clock.read clock Clock.Context_switch - switches = 2 * crossings
        && Mmu.current_context mmu = doms.(cur).Domain.id)
      traps
  in
  List.iter (Events.unregister ev) ids;
  Obs.disable obs;
  Mmu.switch_context mmu doms.(0).Domain.id;
  holds

(* --- vmem ----------------------------------------------------------------- *)

let test_vmem_alloc_free () =
  let k = kernel_fixture () in
  let vm = Kernel.vmem k in
  let dom = Kernel.create_domain k ~name:"u" () in
  let before = Vmem.pages_of vm dom in
  let vaddr = Vmem.alloc_pages vm dom ~count:3 ~sharing:Vmem.Exclusive in
  Alcotest.(check int) "three pages" (before + 3) (Vmem.pages_of vm dom);
  (* pages are zeroed and writable *)
  Machine.write8 (Kernel.machine k) dom.Domain.id vaddr 0x42;
  Alcotest.(check int) "write/read" 0x42 (Machine.read8 (Kernel.machine k) dom.Domain.id vaddr);
  Vmem.free_pages vm dom ~vaddr ~count:3;
  Alcotest.(check int) "freed" before (Vmem.pages_of vm dom);
  (match Vmem.free_pages vm dom ~vaddr ~count:1 with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "double free rejected")

(* a request for more pages than there are free frames maps none *)
let test_vmem_all_or_nothing () =
  let k = kernel_fixture () in
  let vm = Kernel.vmem k in
  let phys = Machine.phys (Kernel.machine k) in
  let dom = Kernel.create_domain k ~name:"u" () in
  let free = Physmem.free_frames phys and keys = Vmem.alloc_keys vm in
  (match Vmem.alloc_pages vm dom ~count:(free + 1) ~sharing:Vmem.Exclusive with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "more pages than free frames");
  Alcotest.(check int) "free frames" free (Physmem.free_frames phys);
  Alcotest.(check (list (pair int int))) "allocations" keys (Vmem.alloc_keys vm)

let test_vmem_sharing () =
  let k = kernel_fixture () in
  let vm = Kernel.vmem k in
  let a = Kernel.create_domain k ~name:"a" () in
  let b = Kernel.create_domain k ~name:"b" () in
  let va = Vmem.alloc_pages vm a ~count:1 ~sharing:Vmem.Shared in
  let vb = Vmem.map_shared vm ~from_dom:a ~vaddr:va ~count:1 ~into:b ~prot:Mmu.Read_only in
  Machine.write8 (Kernel.machine k) a.Domain.id va 0x7E;
  Alcotest.(check int) "b sees a's write" 0x7E
    (Machine.read8 (Kernel.machine k) b.Domain.id vb);
  (* read-only mapping blocks writes *)
  (match Machine.write8 (Kernel.machine k) b.Domain.id vb 1 with
  | exception Machine.Fatal_fault { Mmu.reason = Mmu.Protection; _ } -> ()
  | _ -> Alcotest.fail "read-only shared mapping must block writes");
  (* freeing a's page keeps b's alive through refcounting *)
  Vmem.free_pages vm a ~vaddr:va ~count:1;
  Alcotest.(check int) "refcount keeps frame" 0x7E
    (Machine.read8 (Kernel.machine k) b.Domain.id vb)

let test_vmem_exclusive_not_shareable () =
  let k = kernel_fixture () in
  let vm = Kernel.vmem k in
  let a = Kernel.create_domain k ~name:"a" () in
  let b = Kernel.create_domain k ~name:"b" () in
  let va = Vmem.alloc_pages vm a ~count:1 ~sharing:Vmem.Exclusive in
  (match Vmem.map_shared vm ~from_dom:a ~vaddr:va ~count:1 ~into:b ~prot:Mmu.Read_only with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "exclusive pages must not be shareable")

let test_vmem_fault_callbacks () =
  let k = kernel_fixture () in
  let vm = Kernel.vmem k in
  let dom = Kernel.create_domain k ~name:"u" () in
  let vaddr = Vmem.alloc_pages vm dom ~count:1 ~sharing:Vmem.Exclusive in
  Vmem.set_prot vm dom ~vaddr Mmu.Read_only;
  let faults = ref 0 in
  Vmem.set_fault_callback vm dom ~vaddr (fun fault ->
      incr faults;
      (* resolve by upgrading the protection *)
      Vmem.set_prot vm dom ~vaddr:fault.Mmu.vaddr Mmu.Read_write;
      true);
  Machine.write8 (Kernel.machine k) dom.Domain.id vaddr 9;
  Alcotest.(check int) "one fault resolved" 1 !faults;
  Alcotest.(check int) "write landed" 9 (Machine.read8 (Kernel.machine k) dom.Domain.id vaddr);
  Vmem.clear_fault_callback vm dom ~vaddr;
  Vmem.set_prot vm dom ~vaddr Mmu.No_access;
  (match Machine.read8 (Kernel.machine k) dom.Domain.id vaddr with
  | exception Machine.Fatal_fault _ -> ()
  | _ -> Alcotest.fail "cleared callback must not resolve")

let test_vmem_phys_of () =
  let k = kernel_fixture () in
  let vm = Kernel.vmem k in
  let dom = Kernel.create_domain k ~name:"u" () in
  let vaddr = Vmem.alloc_pages vm dom ~count:1 ~sharing:Vmem.Exclusive in
  let phys = Vmem.phys_of vm dom ~vaddr:(vaddr + 17) in
  Machine.write8 (Kernel.machine k) dom.Domain.id (vaddr + 17) 0x3C;
  Alcotest.(check int) "phys address agrees" 0x3C
    (Physmem.read8 (Machine.phys (Kernel.machine k)) phys);
  (match Vmem.phys_of vm dom ~vaddr:0 with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "unmapped phys_of rejected")

let test_vmem_io_grants () =
  let k = kernel_fixture () in
  let vm = Kernel.vmem k in
  let kdom = Kernel.kernel_domain k in
  let dom = Kernel.create_domain k ~name:"drv" () in
  let g = Vmem.alloc_io vm kdom ~device:"console" ~sharing:Vmem.Shared in
  Alcotest.(check int) "console status via grant" 1 (Vmem.io_read vm g ~reg:1);
  (* a second shared grant is fine; exclusive then refused *)
  let g2 = Vmem.alloc_io vm dom ~device:"console" ~sharing:Vmem.Shared in
  (match Vmem.alloc_io vm dom ~device:"console" ~sharing:Vmem.Exclusive with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "exclusive grant over existing grants refused");
  (* grant is checked against the running context *)
  (match Vmem.io_read vm g2 ~reg:1 with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "grant for another domain must be refused");
  Vmem.release_io vm g;
  (match Vmem.io_read vm g ~reg:1 with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "released grant must be refused");
  (match Vmem.alloc_io vm kdom ~device:"gpu" ~sharing:Vmem.Shared with
  | exception Vmem.Vmem_error _ -> ()
  | _ -> Alcotest.fail "unknown device refused")

(* --- directory + proxies --------------------------------------------------- *)

let test_directory_register_bind_same_domain () =
  let k = kernel_fixture () in
  let api = Kernel.api k in
  let kdom = Kernel.kernel_domain k in
  let obj = counter_construct api kdom in
  Kernel.register_at k "/services/counter" obj;
  let bound = Kernel.bind k kdom "/services/counter" in
  Alcotest.(check bool) "same instance, no proxy" true (bound == obj)

let test_directory_bind_cross_domain_proxies () =
  let k = kernel_fixture () in
  let api = Kernel.api k in
  let kdom = Kernel.kernel_domain k in
  let udom = Kernel.create_domain k ~name:"u" () in
  let obj = counter_construct api kdom in
  Kernel.register_at k "/services/counter" obj;
  let proxy1 = Kernel.bind k udom "/services/counter" in
  Alcotest.(check bool) "proxy, not the instance" true (proxy1 != obj);
  Alcotest.(check bool) "recognized as proxy" true (Proxy.is_proxy proxy1);
  let proxy2 = Kernel.bind k udom "/services/counter" in
  Alcotest.(check bool) "proxies cached" true (proxy1 == proxy2);
  (* the proxy works *)
  let ctx = Kernel.ctx k udom in
  ignore (Invoke.call_exn ctx proxy1 ~iface:"counter" ~meth:"incr" [ Value.Int 2 ]);
  Alcotest.check value "state behind proxy" (Value.Int 2)
    (Invoke.call_exn ctx proxy1 ~iface:"counter" ~meth:"get" []);
  (* costs: a cross-domain call was recorded *)
  Alcotest.(check bool) "cross-domain counted" true
    (Clock.counter (Kernel.clock k) "cross_domain_call" >= 2)

let test_proxy_rejects_wrong_domain () =
  let k = kernel_fixture () in
  let api = Kernel.api k in
  let kdom = Kernel.kernel_domain k in
  let u1 = Kernel.create_domain k ~name:"u1" () in
  let u2 = Kernel.create_domain k ~name:"u2" () in
  let obj = counter_construct api kdom in
  Kernel.register_at k "/svc/c" obj;
  let proxy = Kernel.bind k u1 "/svc/c" in
  (* calling u1's proxy from u2 is a protection violation *)
  (match Invoke.call (Kernel.ctx k u2) proxy ~iface:"counter" ~meth:"get" [] with
  | Error (Oerror.Domain_error _) -> ()
  | _ -> Alcotest.fail "proxy must reject foreign callers")

let test_proxy_charges_arg_mapping () =
  let k = kernel_fixture () in
  let api = Kernel.api k in
  let kdom = Kernel.kernel_domain k in
  let udom = Kernel.create_domain k ~name:"u" () in
  let echo =
    Iface.make ~name:"echo"
      [
        Iface.meth ~name:"echo" ~args:[ Vtype.Tblob ] ~ret:Vtype.Tblob
          (fun _ctx -> function
            | [ (Value.Blob _ as b) ] -> Ok b
            | _ -> Error (Oerror.Type_error "echo(blob)"));
      ]
  in
  let obj =
    Instance.create api.Api.registry ~class_name:"test.echo" ~domain:kdom.Domain.id
      [ echo ]
  in
  Kernel.register_at k "/svc/e" obj;
  let proxy = Kernel.bind k udom "/svc/e" in
  let ctx = Kernel.ctx k udom in
  let clock = Kernel.clock k in
  (* the user code is actually running in its own MMU context *)
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) udom.Domain.id;
  let cost_of len =
    snd
      (Clock.measure clock (fun () ->
           ignore
             (Invoke.call_exn ctx proxy ~iface:"echo" ~meth:"echo"
                [ Value.Blob (Bytes.create len) ])))
  in
  let small = cost_of 4 and large = cost_of 400 in
  Mmu.switch_context (Machine.mmu (Kernel.machine k)) kdom.Domain.id;
  (* unit costs: 400B blob maps 2*101 words vs 2*2 — the gap is the
     per-word argument/result mapping *)
  Alcotest.(check bool)
    (Printf.sprintf "argument words cost (small=%d large=%d)" small large)
    true
    (large >= small + 190);
  (* context switches happened on the way in and out *)
  Alcotest.(check bool) "switches counted" true
    (Clock.counter clock "context_switch" >= 4)

let test_directory_replace_interposition () =
  let k = kernel_fixture () in
  let api = Kernel.api k in
  let kdom = Kernel.kernel_domain k in
  let original = counter_construct api kdom in
  let decoy = counter_construct api kdom in
  Kernel.register_at k "/svc/c" original;
  (match Directory.replace (Kernel.directory k) (Path.of_string "/svc/c") decoy with
  | Ok old -> Alcotest.(check bool) "old returned" true (old == original)
  | Error _ -> Alcotest.fail "replace failed");
  let bound = Kernel.bind k kdom "/svc/c" in
  Alcotest.(check bool) "future binds get replacement" true (bound == decoy)

let test_directory_dangling_handle () =
  let k = kernel_fixture () in
  let dir = Kernel.directory k in
  ignore (Namespace.register (Directory.namespace dir) (Path.of_string "/ghost") 9999);
  (match
     Directory.bind dir (Kernel.ctx k (Kernel.kernel_domain k))
       ~view:(Kernel.kernel_domain k).Domain.view
       ~domain:(Kernel.kernel_domain k) (Path.of_string "/ghost")
   with
  | Error (Directory.Dangling 9999) -> ()
  | _ -> Alcotest.fail "expected dangling handle error")

let test_view_overrides_reach_binding () =
  let k = kernel_fixture () in
  let api = Kernel.api k in
  let kdom = Kernel.kernel_domain k in
  let real = counter_construct api kdom in
  let fake = counter_construct api kdom in
  Kernel.register_at k "/svc/net" real;
  Kernel.register_at k "/svc/fake" fake;
  (* domain created with an override: its /svc/net is the fake *)
  let udom =
    Kernel.create_domain k ~name:"u"
      ~overrides:[ (Path.of_string "/svc/net", Instance.handle fake) ]
      ()
  in
  let ctx = Kernel.ctx k udom in
  let bound = Kernel.bind k udom "/svc/net" in
  ignore (Invoke.call_exn ctx bound ~iface:"counter" ~meth:"incr" [ Value.Int 5 ]);
  Alcotest.check value "override routed to fake" (Value.Int 5)
    (Invoke.call_exn (Kernel.ctx k kdom) fake ~iface:"counter" ~meth:"get" []);
  Alcotest.check value "real untouched" (Value.Int 0)
    (Invoke.call_exn (Kernel.ctx k kdom) real ~iface:"counter" ~meth:"get" [])

(* --- certification service + loader ---------------------------------------- *)

let test_loader_requires_cert_for_kernel () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let loader = Kernel.loader k in
  Loader.publish loader (counter_image ());
  (match
     Loader.load loader ~name:"counter" ~into:(Kernel.kernel_domain k)
       ~at:(Path.of_string "/svc/c") ()
   with
  | Error (Loader.Not_certified _) -> ()
  | _ -> Alcotest.fail "uncertified kernel load must fail")

let test_loader_certified_kernel_load () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let inst = System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c" in
  Alcotest.(check int) "lives in kernel domain" (Kernel.kernel_domain k).Domain.id
    inst.Instance.domain;
  Alcotest.(check int) "validation counted" 1 (Certsvc.validations (Kernel.certification k));
  (* registered and bindable *)
  let bound = Kernel.bind k (Kernel.kernel_domain k) "/svc/c" in
  Alcotest.(check bool) "bound" true (bound == inst)

let test_loader_rejects_tampered_image () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let image = counter_image () in
  let image, _ = Images.certify (System.authority sys) ~now:0 image in
  (* tamper after certification *)
  let image = { image with Loader.code = Codegen.tamper image.Loader.code ~at:100 } in
  let loader = Kernel.loader k in
  Loader.publish loader image;
  (match
     Loader.load loader ~name:"counter" ~into:(Kernel.kernel_domain k)
       ~at:(Path.of_string "/svc/c") ()
   with
  | Error (Loader.Validation_failed Validator.Digest_mismatch) -> ()
  | _ -> Alcotest.fail "tampered image must be rejected");
  Alcotest.(check int) "failure counted" 1 (Certsvc.failures (Kernel.certification k))

let test_loader_sandbox_escape () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let inst =
    System.install_exn sys
      (counter_image ~type_safe:false ())
      ~placement:System.Sandboxed ~at:"/svc/c"
  in
  Alcotest.(check bool) "wrapped" true (Sandbox.is_sandboxed inst);
  (* it still works, at a cost *)
  let ctx = Kernel.ctx k (Kernel.kernel_domain k) in
  ignore (Invoke.call_exn ctx inst ~iface:"counter" ~meth:"incr" [ Value.Int 1 ]);
  Alcotest.(check bool) "sfi crossing counted" true
    (Clock.counter (Kernel.clock k) "sfi_crossing" >= 1)

let test_loader_user_load_needs_no_cert () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "u" in
  let inst =
    System.install_exn sys
      (counter_image ~type_safe:false ())
      ~placement:(System.User udom) ~at:"/svc/c"
  in
  Alcotest.(check int) "in user domain" udom.Domain.id inst.Instance.domain;
  Alcotest.(check int) "no validation" 0 (Certsvc.validations (Kernel.certification k))

let test_loader_unload () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let udom = System.new_domain sys "u" in
  let phys = Machine.phys (Kernel.machine k) in
  let frames = Physmem.free_frames phys in
  let inst = System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c" in
  let proxy = Kernel.bind k udom "/svc/c" in
  (match Loader.unload (Kernel.loader k) (Path.of_string "/svc/c") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unload failed: %s" (Loader.load_error_to_string e));
  Alcotest.(check bool) "revoked" true inst.Instance.revoked;
  Alcotest.(check int) "the proxy's entry page is back" frames (Physmem.free_frames phys);
  Alcotest.(check bool) "the handle is gone" true
    (Directory.resolve_handle (Kernel.directory k) (Instance.handle inst) = None);
  (* a proxy its caller still holds answers Revoked, charged the dispatch *)
  let clock = Kernel.clock k in
  let t0 = Clock.now clock in
  (match Invoke.call (Kernel.ctx k udom) proxy ~iface:"counter" ~meth:"get" [] with
  | Error Oerror.Revoked -> ()
  | _ -> Alcotest.fail "a held proxy must answer Revoked");
  Alcotest.(check int) "charge" (Machine.costs (Kernel.machine k)).Cost.indirect_call
    (Clock.now clock - t0);
  (match Kernel.bind k (Kernel.kernel_domain k) "/svc/c" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "name must be gone")

let test_loader_unknown_and_name_conflicts () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let loader = Kernel.loader k in
  (match
     Loader.load loader ~name:"nonesuch" ~into:(Kernel.kernel_domain k)
       ~at:(Path.of_string "/x") ()
   with
  | Error (Loader.Unknown_component "nonesuch") -> ()
  | _ -> Alcotest.fail "unknown component");
  ignore (System.install_exn sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c");
  (match System.install sys (counter_image ()) ~placement:System.Certified ~at:"/svc/c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "name conflict must fail")

let test_loader_online_certification () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let clock = Kernel.clock k in
  let before = Clock.now clock in
  (* type-safe: the compiler delegate accepts; its latency lands on the
     kernel's clock because certification runs on-line *)
  let inst =
    System.install_exn sys (counter_image ()) ~placement:System.Online_certified
      ~at:"/svc/online"
  in
  Alcotest.(check bool) "loaded into the kernel" true
    (inst.Instance.domain = (Kernel.kernel_domain k).Domain.id);
  Alcotest.(check bool) "delegate latency charged" true
    (Clock.now clock - before >= Policies.latency_compiler);
  Alcotest.(check int) "counted" 1 (Clock.counter clock "online_certification");
  (* a component nobody vouches for still fails *)
  let rogue =
    Images.image ~name:"rogue" ~size:512 ~author:"nobody" counter_construct
  in
  (match System.install sys rogue ~placement:System.Online_certified ~at:"/svc/r" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unvouched component must fail on-line too")

let test_certsvc_charges_load_time_costs () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let clock = Kernel.clock k in
  let small = counter_image ~name:"small" () in
  let big =
    Images.image ~name:"big" ~size:64_000 ~author:"kernel-team" ~type_safe:true
      counter_construct
  in
  let _, c_small =
    Clock.measure clock (fun () ->
        ignore (System.install_exn sys small ~placement:System.Certified ~at:"/svc/s"))
  in
  let _, c_big =
    Clock.measure clock (fun () ->
        ignore (System.install_exn sys big ~placement:System.Certified ~at:"/svc/b"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "bigger component costs more to admit (%d vs %d)" c_small c_big)
    true
    (c_big > c_small + 32_000)

(* What a certified kernel load is charged, at the default costs: the
   digest per code byte, one [sig_verify] per signature the
   certification service checked on this load, and the pages mapped. A
   delegate's grant is checked once per kernel. *)
let test_certsvc_charges_signatures_checked () =
  let sys = System.create ~key_bits:384 () in
  let c = Cost.default in
  let size = 4096 in
  let load ?(tamper = false) sys name =
    let k = System.kernel sys in
    let image =
      Images.image ~name ~size ~author:"kernel-team" ~type_safe:true counter_construct
    in
    let image, _ = Images.certify (System.authority sys) ~now:0 image in
    let image =
      if tamper then { image with Loader.code = Codegen.tamper image.Loader.code ~at:100 }
      else image
    in
    let loader = Kernel.loader k and clock = Kernel.clock k in
    Loader.publish loader image;
    let before = Clock.now clock in
    let loaded =
      Loader.load loader ~name ~into:(Kernel.kernel_domain k)
        ~at:(Path.of_string ("/svc/" ^ name)) ()
    in
    (Result.is_ok loaded, Clock.now clock - before)
  in
  let page_size = Machine.page_size (Kernel.machine (System.kernel sys)) in
  let digest = size * c.Cost.digest_byte
  and pages = (size + page_size - 1) / page_size * c.Cost.load_page in
  let expect what ~ok ~cycles (loaded, charged) =
    Alcotest.(check bool) (what ^ ": loaded") ok loaded;
    Alcotest.(check int) what cycles charged
  in
  expect "first load: certificate and grant" ~ok:true
    ~cycles:(digest + (2 * c.Cost.sig_verify) + pages)
    (load sys "first");
  expect "same delegate again: the certificate only" ~ok:true
    ~cycles:(digest + c.Cost.sig_verify + pages)
    (load sys "second");
  expect "tampered: the digest only" ~ok:false ~cycles:digest
    (load ~tamper:true sys "tampered");
  (* another kernel trusting the same authority checks the grant itself *)
  let other = System.with_authority ~seed:7 (System.authority sys) in
  expect "another kernel's first load" ~ok:true
    ~cycles:(digest + (2 * c.Cost.sig_verify) + pages)
    (load other "first")

(* --- kernel composition ------------------------------------------------------ *)

let test_kernel_namespace_conventions () =
  let k = kernel_fixture () in
  let ns = Directory.namespace (Kernel.directory k) in
  List.iter
    (fun path ->
      Alcotest.(check bool) path true (Namespace.exists ns (Path.of_string path)))
    [ "/nucleus/events"; "/nucleus/memory"; "/nucleus/directory";
      "/nucleus/certification"; "/nucleus/trace"; "/nucleus/check";
      "/nucleus/kernel" ]

let test_kernel_service_objects () =
  let k = kernel_fixture () in
  let kdom = Kernel.kernel_domain k in
  let ctx = Kernel.ctx k kdom in
  let dir_obj = Kernel.bind k kdom "/nucleus/directory" in
  (* register + bind through the *object* interface *)
  let api = Kernel.api k in
  let counter = counter_construct api kdom in
  ignore
    (Invoke.call_exn ctx dir_obj ~iface:"directory" ~meth:"register"
       [ Value.Str "/svc/via-object"; Value.Int (Instance.handle counter) ]);
  (match
     Invoke.call_exn ctx dir_obj ~iface:"directory" ~meth:"bind"
       [ Value.Str "/svc/via-object" ]
   with
  | Value.Int h -> Alcotest.(check int) "handle" (Instance.handle counter) h
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (match
     Invoke.call_exn ctx dir_obj ~iface:"directory" ~meth:"list" [ Value.Str "/nucleus" ]
   with
  | Value.List entries ->
    Alcotest.(check int) "nine nucleus entries" 9 (List.length entries)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

let test_kernel_memory_object_syscall () =
  (* user domain calling the kernel's memory object goes through a proxy:
     an object-model system call *)
  let k = kernel_fixture () in
  let udom = Kernel.create_domain k ~name:"u" () in
  let ctx = Kernel.ctx k udom in
  let mem_obj = Kernel.bind k udom "/nucleus/memory" in
  Alcotest.(check bool) "it is a proxy" true (Proxy.is_proxy mem_obj);
  let before = Clock.counter (Kernel.clock k) "cross_domain_call" in
  (match
     Invoke.call_exn ctx mem_obj ~iface:"memory" ~meth:"alloc_pages"
       [ Value.Int 2; Value.Bool false ]
   with
  | Value.Int vaddr ->
    Machine.write8 (Kernel.machine k) udom.Domain.id vaddr 5;
    Alcotest.(check int) "usable memory" 5
      (Machine.read8 (Kernel.machine k) udom.Domain.id vaddr)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  Alcotest.(check int) "syscall crossed domains" (before + 1)
    (Clock.counter (Kernel.clock k) "cross_domain_call")

let test_kernel_static_composition_sealed () =
  let k = kernel_fixture () in
  let kdom = Kernel.kernel_domain k in
  let nucleus_obj = Kernel.bind k kdom "/nucleus/kernel" in
  Alcotest.(check string) "class" "paramecium.nucleus" nucleus_obj.Instance.class_name;
  (* the composition exports the service interfaces *)
  Alcotest.(check (list string))
    "exports"
    [ "events"; "memory"; "directory"; "certification"; "trace"; "journal"; "query" ]
    (Instance.interface_names nucleus_obj)

let test_kernel_domain_listing () =
  let k = kernel_fixture () in
  let u1 = Kernel.create_domain k ~name:"u1" () in
  let _u2 = Kernel.create_domain k ~name:"u2" () in
  Alcotest.(check int) "three domains" 3 (List.length (Kernel.domains k));
  (match Kernel.domains k with
  | kd :: _ -> Alcotest.(check bool) "kernel first" true (Domain.is_kernel kd)
  | [] -> Alcotest.fail "no domains");
  Alcotest.(check bool) "domain_of_id" true (Kernel.domain_of_id k u1.Domain.id = Some u1);
  Alcotest.(check bool) "unknown id" true (Kernel.domain_of_id k 999 = None)

(* --- domain teardown ---------------------------------------------------- *)

let test_destroy_domain_reclaims_everything () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  let m = Kernel.machine k in
  let free0 = Physmem.free_frames (Machine.phys m) in
  let dom = Kernel.create_domain k ~name:"doomed" () in
  (* give it memory, an object, a name, an event callback and an io grant *)
  let vaddr = Vmem.alloc_pages (Kernel.vmem k) dom ~count:3 ~sharing:Vmem.Exclusive in
  ignore vaddr;
  let obj = counter_construct (Kernel.api k) dom in
  Kernel.register_at k "/svc/doomed" obj;
  ignore
    (Events.register (Kernel.events k) (Events.Irq 5) ~domain:dom (fun _ -> ()));
  ignore (Vmem.alloc_io (Kernel.vmem k) dom ~device:"console" ~sharing:Vmem.Shared);
  (* a proxy held by the kernel domain *)
  let proxy = Kernel.bind k (Kernel.kernel_domain k) "/svc/doomed" in
  Kernel.destroy_domain k dom;
  Alcotest.(check bool) "dead" false dom.Domain.alive;
  (* all of the domain's frames come back, and so does the proxy's
     fault-hook page, which lives in the kernel (importer) domain *)
  Alcotest.(check int) "frames reclaimed" free0 (Physmem.free_frames (Machine.phys m));
  Alcotest.(check int) "the kernel's proxy is released" 0
    (Directory.proxy_count (Kernel.directory k));
  Alcotest.(check int) "no event callbacks left" 0
    (Events.callbacks (Kernel.events k) (Events.Irq 5));
  Alcotest.(check bool) "name gone" false
    (Namespace.exists (Directory.namespace (Kernel.directory k))
       (Path.of_string "/svc/doomed"));
  Alcotest.(check bool) "removed from listing" true
    (Kernel.domain_of_id k dom.Domain.id = None);
  (* the proxy now fails cleanly *)
  (match Invoke.call (Kernel.ctx k (Kernel.kernel_domain k)) proxy ~iface:"counter" ~meth:"get" [] with
  | Error Oerror.Revoked -> ()
  | _ -> Alcotest.fail "proxy to a dead domain must report Revoked");
  (* kernel still fully operational *)
  let d2 = Kernel.create_domain k ~name:"next" () in
  let v2 = Vmem.alloc_pages (Kernel.vmem k) d2 ~count:1 ~sharing:Vmem.Exclusive in
  Machine.write8 m d2.Domain.id v2 1;
  Alcotest.(check int) "new domain works" 1 (Machine.read8 m d2.Domain.id v2)

let test_destroy_domain_guards () =
  let sys = sys_fixture () in
  let k = System.kernel sys in
  (match Kernel.destroy_domain k (Kernel.kernel_domain k) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kernel domain must be indestructible");
  let dom = Kernel.create_domain k ~name:"once" () in
  Kernel.destroy_domain k dom;
  (match Kernel.destroy_domain k dom with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double destroy rejected")

let () =
  Alcotest.run "nucleus"
    [
      ( "lifecycle",
        [
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~count:200
               ~name:"unload, rollback and the end of a case return what was taken"
               ~print:(fun steps -> String.concat "; " (List.map show_step steps))
               QCheck2.Gen.(list_size (int_range 1 12) gen_step)
               lifecycle_law);
          Alcotest.test_case "10,000 loads on one boot" `Quick test_lifecycle_soak;
          Alcotest.test_case "a refused load keeps nothing" `Quick test_lifecycle_failed_load;
          Alcotest.test_case "rollback drops the proxies it bound" `Quick
            test_lifecycle_rollback_drops_proxies;
          Alcotest.test_case "a constructor's binds outlive its load" `Quick
            test_lifecycle_constructor_binds;
          Alcotest.test_case "a constructor that raises keeps nothing" `Quick
            test_lifecycle_constructor_raises;
          Alcotest.test_case "a composite's unload returns every slot" `Quick
            test_lifecycle_composite_load;
          Alcotest.test_case "destroying an importer drops its proxies" `Quick
            test_lifecycle_destroy_importer;
          Alcotest.test_case "bind without a free frame" `Quick
            test_lifecycle_bind_without_frames;
        ] );
      ( "events",
        [
          Alcotest.test_case "callbacks" `Quick test_events_callbacks;
          Alcotest.test_case "trap dispatch" `Quick test_events_trap_dispatch;
          Alcotest.test_case "cross-domain delivery" `Quick
            test_events_cross_domain_delivery_switches;
          Alcotest.test_case "popup redirection" `Quick test_events_popup_redirection;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~count:200
               ~name:"a doorbell reaches its id's call-backs and switches only into them"
               ~print:print_doorbells gen_doorbells doorbells_hold);
        ] );
      ( "vmem",
        [
          Alcotest.test_case "alloc/free" `Quick test_vmem_alloc_free;
          Alcotest.test_case "all or nothing" `Quick test_vmem_all_or_nothing;
          Alcotest.test_case "sharing + refcount" `Quick test_vmem_sharing;
          Alcotest.test_case "exclusive not shareable" `Quick
            test_vmem_exclusive_not_shareable;
          Alcotest.test_case "fault callbacks" `Quick test_vmem_fault_callbacks;
          Alcotest.test_case "phys_of" `Quick test_vmem_phys_of;
          Alcotest.test_case "io grants" `Quick test_vmem_io_grants;
        ] );
      ( "directory",
        [
          Alcotest.test_case "same-domain bind" `Quick
            test_directory_register_bind_same_domain;
          Alcotest.test_case "cross-domain proxies" `Quick
            test_directory_bind_cross_domain_proxies;
          Alcotest.test_case "proxy domain check" `Quick test_proxy_rejects_wrong_domain;
          Alcotest.test_case "proxy arg-mapping cost" `Quick
            test_proxy_charges_arg_mapping;
          Alcotest.test_case "replace (interposition)" `Quick
            test_directory_replace_interposition;
          Alcotest.test_case "dangling handle" `Quick test_directory_dangling_handle;
          Alcotest.test_case "view overrides" `Quick test_view_overrides_reach_binding;
        ] );
      ( "loader",
        [
          Alcotest.test_case "kernel requires cert" `Quick
            test_loader_requires_cert_for_kernel;
          Alcotest.test_case "certified load" `Quick test_loader_certified_kernel_load;
          Alcotest.test_case "tampered image rejected" `Quick
            test_loader_rejects_tampered_image;
          Alcotest.test_case "sandbox escape" `Quick test_loader_sandbox_escape;
          Alcotest.test_case "user load" `Quick test_loader_user_load_needs_no_cert;
          Alcotest.test_case "unload" `Quick test_loader_unload;
          Alcotest.test_case "unknown/conflicts" `Quick
            test_loader_unknown_and_name_conflicts;
          Alcotest.test_case "online certification" `Quick
            test_loader_online_certification;
          Alcotest.test_case "load-time costs scale" `Quick
            test_certsvc_charges_load_time_costs;
          Alcotest.test_case "charges the signatures checked" `Quick
            test_certsvc_charges_signatures_checked;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "destroy domain" `Quick
            test_destroy_domain_reclaims_everything;
          Alcotest.test_case "destroy guards" `Quick test_destroy_domain_guards;
          Alcotest.test_case "namespace conventions" `Quick
            test_kernel_namespace_conventions;
          Alcotest.test_case "service objects" `Quick test_kernel_service_objects;
          Alcotest.test_case "memory syscall via proxy" `Quick
            test_kernel_memory_object_syscall;
          Alcotest.test_case "static composition" `Quick
            test_kernel_static_composition_sealed;
          Alcotest.test_case "domain listing" `Quick test_kernel_domain_listing;
        ] );
    ]

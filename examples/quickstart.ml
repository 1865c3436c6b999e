(* Quickstart: boot a Paramecium system, certify and load a component
   into the kernel protection domain, bind it by name, and invoke it.

   Run with: dune exec examples/quickstart.exe *)

open Paramecium

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* A trivial component: a key/value store exporting one interface. *)
let kvstore_construct (api : Api.t) (dom : Domain.t) =
  let table : (string, Value.t) Hashtbl.t = Hashtbl.create 16 in
  (* Each method is declared once: the argument descriptors give its
     published signature, and the body receives the decoded values. *)
  let iface =
    Iface.make ~name:"kvstore"
      [
        Iface.fn2 ~name:"put" Iface.Str Iface.Any ~ret:Vtype.Tunit (fun _ctx k v ->
            Hashtbl.replace table k v;
            Ok Value.Unit);
        Iface.fn1 ~name:"get" Iface.Str ~ret:Vtype.Tany (fun _ctx k ->
            match Hashtbl.find_opt table k with
            | Some v -> Ok v
            | None -> Error (Oerror.Fault ("no such key " ^ k)));
        Iface.fn0 ~name:"size" ~ret:Vtype.Tint (fun _ctx ->
            Ok (Value.Int (Hashtbl.length table)));
      ]
  in
  Instance.create api.Api.registry ~class_name:"example.kvstore" ~domain:dom.Domain.id
    [ iface ]

let () =
  (* 1. Build a system: certification authority with the standard delegate
     chain, and a kernel that trusts it. *)
  let sys = System.create ~seed:42 () in
  let k = System.kernel sys in
  say "booted: %d domains, authority %s"
    (List.length (Kernel.domains k))
    (Principal.id (Authority.ca (System.authority sys)));

  (* 2. Package the component as a repository image. Marking it type_safe
     means the trusted-compiler delegate will certify it. *)
  let image =
    Images.image ~name:"kvstore" ~size:8_192 ~author:"example" ~type_safe:true
      kvstore_construct
  in

  (* 3. Certify and load it into the kernel protection domain. *)
  let kv = System.install_exn sys image ~placement:System.Certified ~at:"/services/kv" in
  say "loaded %s into domain %d (validations so far: %d)" kv.Instance.class_name
    kv.Instance.domain
    (Certsvc.validations (Kernel.certification k));

  (* 4. Bind it by name — from the kernel domain this is the instance
     itself; from a user domain it would be a proxy. *)
  let kdom = Kernel.kernel_domain k in
  let store = Kernel.bind k kdom "/services/kv" in
  let ctx = Kernel.ctx k kdom in
  let call meth args = Invoke.call_exn ctx store ~iface:"kvstore" ~meth args in
  ignore (call "put" [ Value.Str "greeting"; Value.Str "hello, paramecium" ]);
  ignore (call "put" [ Value.Str "answer"; Value.Int 42 ]);
  say "kv.size = %s" (Value.to_string (call "size" []));
  say "kv.get(greeting) = %s" (Value.to_string (call "get" [ Value.Str "greeting" ]));

  (* 5. The same object through a user domain: binding materializes a
     proxy and every call pays the cross-domain tax. *)
  let udom = System.new_domain sys "app" in
  let store_u = Kernel.bind k udom "/services/kv" in
  let ctx_u = Kernel.ctx k udom in
  let before = Clock.now (Kernel.clock k) in
  (match Invoke.call_exn ctx_u store_u ~iface:"kvstore" ~meth:"get" [ Value.Str "answer" ] with
  | Value.Int 42 -> ()
  | v -> failwith (Value.to_string v));
  say "user-domain get() = 42 via %s (%d cycles, %d cross-domain calls)"
    store_u.Instance.class_name
    (Clock.now (Kernel.clock k) - before)
    (Clock.read (Kernel.clock k) Clock.Cross_domain_call);

  (* 6. Uncertified components cannot enter the kernel. *)
  let rogue = Images.image ~name:"rogue" ~size:1_024 ~author:"unknown" kvstore_construct in
  (match System.install sys rogue ~placement:System.Certified ~at:"/services/rogue" with
  | Error e -> say "rogue component refused: %s" e
  | Ok _ -> failwith "rogue admitted!");
  say "quickstart done; total simulated cycles: %d" (Clock.now (Kernel.clock k))

(* Tests for the object architecture: values, type info, interfaces,
   instances with delegation, invocation, composition. *)

open Paramecium

let ctx_fixture () =
  let clock = Clock.create () in
  (clock, Call_ctx.make ~clock ~costs:Cost.unit_costs ~caller_domain:0)

let value = Alcotest.testable Value.pp Value.equal

(* a counter object: interface "counter" with incr/get, state pointer *)
let counter_object registry ?(domain = 0) () =
  let state = ref (Value.Int 0) in
  let incr_m _ctx = function
    | [ Value.Int by ] ->
      (match !state with
      | Value.Int v ->
        state := Value.Int (v + by);
        Ok Value.Unit
      | _ -> Error (Oerror.Fault "bad state"))
    | _ -> Error (Oerror.Type_error "incr(int)")
  in
  let get_m _ctx = function
    | [] -> Ok !state
    | _ -> Error (Oerror.Type_error "get()")
  in
  let iface =
    Iface.make ~state ~name:"counter"
      [
        Iface.meth ~name:"incr" ~args:[ Vtype.Tint ] ~ret:Vtype.Tunit incr_m;
        Iface.meth ~name:"get" ~args:[] ~ret:Vtype.Tint get_m;
      ]
  in
  Instance.create registry ~class_name:"test.counter" ~domain [ iface ]

(* --- values and types ------------------------------------------------ *)

let test_value_words () =
  Alcotest.(check int) "unit" 0 (Value.words Value.Unit);
  Alcotest.(check int) "int" 1 (Value.words (Value.Int 5));
  Alcotest.(check int) "str" 3 (Value.words (Value.Str "hello123"));
  Alcotest.(check int) "blob" 2 (Value.words (Value.Blob (Bytes.create 4)));
  Alcotest.(check int) "pair" 2
    (Value.words (Value.Pair (Value.Int 1, Value.Bool true)));
  Alcotest.(check int) "list" 3
    (Value.words (Value.List [ Value.Int 1; Value.Int 2 ]))

let test_value_accessors () =
  Alcotest.(check int) "to_int" 42 (Value.to_int (Value.Int 42));
  Alcotest.(check string) "to_str" "s" (Value.to_str (Value.Str "s"));
  (match Value.to_int (Value.Str "no") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_vtype_check () =
  let open Vtype in
  Alcotest.(check bool) "int ok" true (check Tint (Value.Int 1));
  Alcotest.(check bool) "int vs str" false (check Tint (Value.Str "x"));
  Alcotest.(check bool) "any" true (check Tany (Value.Blob Bytes.empty));
  Alcotest.(check bool) "pair" true
    (check (Tpair (Tint, Tstr)) (Value.Pair (Value.Int 1, Value.Str "a")));
  Alcotest.(check bool) "list of int" true
    (check (Tlist Tint) (Value.List [ Value.Int 1; Value.Int 2 ]));
  Alcotest.(check bool) "heterogeneous list fails" false
    (check (Tlist Tint) (Value.List [ Value.Int 1; Value.Str "x" ]));
  Alcotest.(check bool) "arity" false
    (check_args { args = [ Tint ]; ret = Tunit } [ Value.Int 1; Value.Int 2 ]);
  Alcotest.(check string) "signature rendering" "(int, str) -> blob"
    (to_string_signature { args = [ Tint; Tstr ]; ret = Tblob })

(* --- interfaces ------------------------------------------------------- *)

let test_iface_construction () =
  let m = Iface.meth ~name:"f" ~args:[] ~ret:Vtype.Tunit (fun _ _ -> Ok Value.Unit) in
  let i = Iface.make ~name:"i" [ m ] in
  Alcotest.(check (list string)) "methods" [ "f" ] (Iface.method_names i);
  Alcotest.(check bool) "find" true (Iface.find_method i "f" <> None);
  Alcotest.(check bool) "missing" true (Iface.find_method i "g" = None);
  (match Iface.make ~name:"dup" [ m; m ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate methods rejected");
  Alcotest.(check (list (pair string string)))
    "type info"
    [ ("f", "() -> unit") ]
    (Iface.type_info i)

let test_iface_override () =
  let hits = ref "" in
  let m name = Iface.meth ~name ~args:[] ~ret:Vtype.Tunit (fun _ _ -> hits := !hits ^ name; Ok Value.Unit) in
  let i = Iface.make ~name:"i" [ m "a"; m "b" ] in
  let replacement =
    Iface.meth ~name:"a" ~args:[] ~ret:Vtype.Tunit (fun _ _ ->
        hits := !hits ^ "A";
        Ok Value.Unit)
  in
  let i' = Iface.override i ~methods:[ replacement ] in
  let _, ctx = ctx_fixture () in
  ignore ((Option.get (Iface.find_method i' "a")).Iface.impl ctx []);
  ignore ((Option.get (Iface.find_method i' "b")).Iface.impl ctx []);
  Alcotest.(check string) "override took" "Ab" !hits;
  (match Iface.override i ~methods:[ Iface.meth ~name:"zz" ~args:[] ~ret:Vtype.Tunit (fun _ _ -> Ok Value.Unit) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "override of missing method rejected")

(* --- typed declarations ------------------------------------------------ *)

(* One method per arity. Each records the decoded arguments, re-wrapped,
   so a test can see exactly what reached its body. *)
let typed_iface seen =
  let got vs = seen := Some vs; Ok (Value.Int (List.length vs)) in
  Iface.make ~name:"t"
    [
      Iface.fn0 ~name:"f0" ~ret:Vtype.Tint (fun _ -> got []);
      Iface.fn1 ~name:"f1" Iface.Int ~ret:Vtype.Tint (fun _ a -> got [ Value.Int a ]);
      Iface.fn2 ~name:"f2" Iface.Str Iface.Bool ~ret:Vtype.Tint (fun _ a b ->
          got [ Value.Str a; Value.Bool b ]);
      Iface.fn3 ~name:"f3" Iface.Blob Iface.Handle (Iface.List Vtype.Tint) ~ret:Vtype.Tint
        (fun _ a b c -> got [ Value.Blob a; Value.Handle b; Value.List c ]);
      Iface.fn4 ~name:"f4" Iface.Any Iface.Int Iface.Str Iface.Blob ~ret:Vtype.Tint
        (fun _ a b c d -> got [ a; Value.Int b; Value.Str c; Value.Blob d ]);
    ]

(* name, signature, well-typed arguments, and whether each position is
   an [any] argument *)
let typed_cases =
  [
    ("f0", "() -> int", [], []);
    ("f1", "(int) -> int", [ Value.Int 7 ], [ false ]);
    ("f2", "(str, bool) -> int", [ Value.Str "s"; Value.Bool true ], [ false; false ]);
    ( "f3",
      "(blob, handle, int list) -> int",
      [ Value.Blob (Bytes.of_string "b"); Value.Handle 3; Value.List [ Value.Int 1 ] ],
      [ false; false; false ] );
    ( "f4",
      "(any, int, str, blob) -> int",
      [ Value.Pair (Value.Unit, Value.Int 1); Value.Int 2; Value.Str "c";
        Value.Blob Bytes.empty ],
      [ true; false; false; false ] );
  ]

(* a value of another type than [v] *)
let retyped = function Value.Int _ -> Value.Str "x" | _ -> Value.Int 0

(* every ill-shaped argument list for a case: one extra argument, and
   each non-any argument in turn replaced by a value of another type *)
let ill_typed args any =
  (args @ [ Value.Unit ])
  :: List.concat
       (List.mapi
          (fun i is_any ->
            if is_any then []
            else [ List.mapi (fun j v -> if i = j then retyped v else v) args ])
          any)

let test_typed_signatures () =
  let i = typed_iface (ref None) in
  Alcotest.(check (list (pair string string)))
    "derived type info"
    (List.map (fun (n, sg, _, _) -> (n, sg)) typed_cases)
    (Iface.type_info i)

let test_typed_invoke () =
  let registry = Registry.create () in
  let seen = ref None in
  let obj =
    Instance.create registry ~class_name:"test.typed" ~domain:0 [ typed_iface seen ]
  in
  let _, ctx = ctx_fixture () in
  List.iter
    (fun (name, sg, args, any) ->
      seen := None;
      Alcotest.check value (name ^ " result") (Value.Int (List.length args))
        (Invoke.call_exn ctx obj ~iface:"t" ~meth:name args);
      (match !seen with
      | Some got -> Alcotest.(check (list value)) (name ^ " decoded") args got
      | None -> Alcotest.failf "%s: body not reached" name);
      List.iter
        (fun bad ->
          seen := None;
          (match Invoke.call ctx obj ~iface:"t" ~meth:name bad with
          | Error (Oerror.Type_error m) ->
            Alcotest.(check string) (name ^ " names the signature")
              (Printf.sprintf "t.%s expects %s" name sg) m
          | _ -> Alcotest.failf "%s: ill-typed call accepted" name);
          Alcotest.(check bool) (name ^ " body not reached") true (!seen = None))
        (ill_typed args any))
    typed_cases

(* Without Invoke in front, the constructor's own fallback answers a
   wrong shape with a Type_error — it never raises, never runs the body. *)
let test_typed_direct_impl () =
  let seen = ref None in
  let i = typed_iface seen in
  let _, ctx = ctx_fixture () in
  List.iter
    (fun (name, sg, args, any) ->
      let m = Option.get (Iface.find_method i name) in
      List.iter
        (fun bad ->
          seen := None;
          (match m.Iface.impl ctx bad with
          | Error (Oerror.Type_error msg) ->
            Alcotest.(check string) (name ^ " fallback") (name ^ " expects " ^ sg) msg
          | Ok _ | Error _ -> Alcotest.failf "%s: wrong shape accepted" name
          | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e));
          Alcotest.(check bool) (name ^ " body not reached") true (!seen = None))
        (ill_typed args any))
    typed_cases;
  (* a list argument reaches the body as the caller's own list *)
  let l = [ Value.Int 1; Value.Int 2 ] in
  let got = ref [] in
  let m =
    Iface.fn1 ~name:"l" (Iface.List Vtype.Tint) ~ret:Vtype.Tunit (fun _ xs ->
        got := xs;
        Ok Value.Unit)
  in
  ignore (m.Iface.impl ctx [ Value.List l ]);
  Alcotest.(check bool) "list not copied" true (!got == l)

(* --- instances and invocation ---------------------------------------- *)

let test_invoke_basic () =
  let registry = Registry.create () in
  let obj = counter_object registry () in
  let _, ctx = ctx_fixture () in
  (match Invoke.call ctx obj ~iface:"counter" ~meth:"incr" [ Value.Int 5 ] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "incr failed");
  Alcotest.check value "get" (Value.Int 5)
    (Invoke.call_exn ctx obj ~iface:"counter" ~meth:"get" [])

let test_invoke_errors () =
  let registry = Registry.create () in
  let obj = counter_object registry () in
  let _, ctx = ctx_fixture () in
  (match Invoke.call ctx obj ~iface:"nope" ~meth:"x" [] with
  | Error (Oerror.No_such_interface "nope") -> ()
  | _ -> Alcotest.fail "expected No_such_interface");
  (match Invoke.call ctx obj ~iface:"counter" ~meth:"reset" [] with
  | Error (Oerror.No_such_method ("counter", "reset")) -> ()
  | _ -> Alcotest.fail "expected No_such_method");
  (match Invoke.call ctx obj ~iface:"counter" ~meth:"incr" [ Value.Str "x" ] with
  | Error (Oerror.Type_error _) -> ()
  | _ -> Alcotest.fail "expected Type_error");
  Instance.revoke obj;
  (match Invoke.call ctx obj ~iface:"counter" ~meth:"get" [] with
  | Error Oerror.Revoked -> ()
  | _ -> Alcotest.fail "expected Revoked")

let test_invoke_checks_return_type () =
  let registry = Registry.create () in
  let bad =
    Iface.make ~name:"bad"
      [ Iface.meth ~name:"lie" ~args:[] ~ret:Vtype.Tint (fun _ _ -> Ok (Value.Str "no")) ]
  in
  let obj = Instance.create registry ~class_name:"test.bad" ~domain:0 [ bad ] in
  let _, ctx = ctx_fixture () in
  (match Invoke.call ctx obj ~iface:"bad" ~meth:"lie" [] with
  | Error (Oerror.Type_error _) -> ()
  | _ -> Alcotest.fail "ill-typed return must be caught")

let test_invoke_charges () =
  let registry = Registry.create () in
  let obj = counter_object registry () in
  let clock, ctx = ctx_fixture () in
  ignore (Invoke.call ctx obj ~iface:"counter" ~meth:"get" []);
  Alcotest.(check int) "dispatch counted" 1 (Clock.counter clock "method_invocation");
  Alcotest.(check bool) "cycles charged" true (Clock.now clock > 0)

let test_delegation () =
  let registry = Registry.create () in
  let base = counter_object registry () in
  (* an empty object that delegates counter to [base] *)
  let front = Instance.create registry ~class_name:"test.front" ~domain:0 [] in
  Instance.set_delegate front (Some base);
  let clock, ctx = ctx_fixture () in
  ignore (Invoke.call_exn ctx front ~iface:"counter" ~meth:"incr" [ Value.Int 3 ]);
  Alcotest.check value "shared state" (Value.Int 3)
    (Invoke.call_exn ctx front ~iface:"counter" ~meth:"get" []);
  Alcotest.(check int) "delegation counted" 2 (Clock.counter clock "delegation");
  (* cycles rejected *)
  (match Instance.set_delegate base (Some front) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "delegation cycle rejected");
  (match Instance.set_delegate front (Some front) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self delegation rejected")

let test_add_interface_evolution () =
  let registry = Registry.create () in
  let obj = counter_object registry () in
  let extra =
    Iface.make ~name:"measure"
      [ Iface.meth ~name:"zero" ~args:[] ~ret:Vtype.Tint (fun _ _ -> Ok (Value.Int 0)) ]
  in
  Instance.add_interface obj extra;
  Alcotest.(check (list string)) "both interfaces" [ "counter"; "measure" ]
    (Instance.interface_names obj);
  let _, ctx = ctx_fixture () in
  Alcotest.check value "new iface callable" (Value.Int 0)
    (Invoke.call_exn ctx obj ~iface:"measure" ~meth:"zero" []);
  (match Instance.add_interface obj extra with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate interface rejected")

let test_registry () =
  let registry = Registry.create () in
  let obj = counter_object registry () in
  Alcotest.(check bool) "registered" true
    (Registry.get registry (Instance.handle obj) <> None);
  Alcotest.(check int) "size" 1 (Registry.size registry);
  Registry.remove registry (Instance.handle obj);
  Alcotest.(check bool) "removed" true (Registry.get registry (Instance.handle obj) = None);
  Alcotest.(check bool) "handles start at 1" true (Instance.handle obj >= 1)

(* --- composition ------------------------------------------------------ *)

let test_composite_forwarding () =
  let registry = Registry.create () in
  let inner = counter_object registry () in
  let comp =
    Composite.make registry ~class_name:"test.comp" ~domain:0 ~mode:Composite.Dynamic
      ~children:[ ("c", inner) ]
      ~exports:[ { Composite.as_name = "counter"; child = "c"; iface = "counter" } ]
  in
  let _, ctx = ctx_fixture () in
  let obj = Composite.instance comp in
  ignore (Invoke.call_exn ctx obj ~iface:"counter" ~meth:"incr" [ Value.Int 9 ]);
  Alcotest.check value "forwarded" (Value.Int 9)
    (Invoke.call_exn ctx obj ~iface:"counter" ~meth:"get" [])

let test_composite_replace_child () =
  let registry = Registry.create () in
  let a = counter_object registry () in
  let b = counter_object registry () in
  let comp =
    Composite.make registry ~class_name:"test.comp" ~domain:0 ~mode:Composite.Dynamic
      ~children:[ ("c", a) ]
      ~exports:[ { Composite.as_name = "counter"; child = "c"; iface = "counter" } ]
  in
  let _, ctx = ctx_fixture () in
  let obj = Composite.instance comp in
  ignore (Invoke.call_exn ctx obj ~iface:"counter" ~meth:"incr" [ Value.Int 4 ]);
  Composite.replace_child comp "c" b;
  Alcotest.check value "fresh child state" (Value.Int 0)
    (Invoke.call_exn ctx obj ~iface:"counter" ~meth:"get" []);
  (* replacement must satisfy the forwarded interfaces *)
  let empty = Instance.create registry ~class_name:"test.empty" ~domain:0 [] in
  (match Composite.replace_child comp "c" empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incompatible replacement rejected")

let test_composite_static_is_sealed () =
  let registry = Registry.create () in
  let a = counter_object registry () in
  let b = counter_object registry () in
  let comp =
    Composite.make registry ~class_name:"test.static" ~domain:0 ~mode:Composite.Static
      ~children:[ ("c", a) ]
      ~exports:[ { Composite.as_name = "counter"; child = "c"; iface = "counter" } ]
  in
  (match Composite.replace_child comp "c" b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "static composition must refuse replacement")

let test_composite_recursive () =
  (* compositions nest: wrap a composition in a composition *)
  let registry = Registry.create () in
  let inner = counter_object registry () in
  let mid =
    Composite.make registry ~class_name:"test.mid" ~domain:0 ~mode:Composite.Dynamic
      ~children:[ ("c", inner) ]
      ~exports:[ { Composite.as_name = "counter"; child = "c"; iface = "counter" } ]
  in
  let outer =
    Composite.make registry ~class_name:"test.outer" ~domain:0 ~mode:Composite.Dynamic
      ~children:[ ("m", Composite.instance mid) ]
      ~exports:[ { Composite.as_name = "counter"; child = "m"; iface = "counter" } ]
  in
  let _, ctx = ctx_fixture () in
  ignore
    (Invoke.call_exn ctx (Composite.instance outer) ~iface:"counter" ~meth:"incr"
       [ Value.Int 2 ]);
  Alcotest.check value "two levels deep" (Value.Int 2)
    (Invoke.call_exn ctx (Composite.instance outer) ~iface:"counter" ~meth:"get" [])

let test_composite_add_child () =
  let registry = Registry.create () in
  let a = counter_object registry () in
  let b = counter_object registry () in
  let comp =
    Composite.make registry ~class_name:"test.comp" ~domain:0 ~mode:Composite.Dynamic
      ~children:[ ("a", a) ]
      ~exports:[ { Composite.as_name = "counter"; child = "a"; iface = "counter" } ]
  in
  Composite.add_child comp "b" b;
  Alcotest.(check int) "two children" 2 (List.length (Composite.children comp));
  (match Composite.add_child comp "b" b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate child rejected");
  (match Composite.child comp "b" with
  | Some inst -> Alcotest.(check bool) "child lookup" true (inst == b)
  | None -> Alcotest.fail "child b missing");
  (match Composite.child comp "zz" with
  | None -> ()
  | Some _ -> Alcotest.fail "unexpected child zz")

let test_iface_state_pointer () =
  (* the "state pointers" part of §2's interface definition *)
  let registry = Registry.create () in
  let obj = counter_object registry () in
  let iface = Option.get (Instance.get_interface obj "counter") in
  (match iface.Iface.state with
  | Some cell ->
    let _, ctx = ctx_fixture () in
    ignore (Invoke.call_exn ctx obj ~iface:"counter" ~meth:"incr" [ Value.Int 3 ]);
    Alcotest.check value "state pointer observes method effects" (Value.Int 3) !cell
  | None -> Alcotest.fail "counter interface should export its state pointer")

(* --- properties -------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let rec gen_value depth =
  QCheck2.Gen.(
    if depth = 0 then
      oneof
        [ return Value.Unit; map (fun b -> Value.Bool b) bool;
          map (fun n -> Value.Int n) small_int;
          map (fun s -> Value.Str s) (string_size (int_bound 12)) ]
    else
      frequency
        [
          (3, gen_value 0);
          ( 1,
            map2 (fun a b -> Value.Pair (a, b)) (gen_value (depth - 1))
              (gen_value (depth - 1)) );
          (1, map (fun xs -> Value.List xs) (list_size (int_bound 4) (gen_value (depth - 1))));
        ])

let props =
  [
    prop "value equality is reflexive" (gen_value 3) (fun v -> Value.equal v v);
    prop "words is non-negative and bounded" (gen_value 3) (fun v ->
        let w = Value.words v in
        w >= 0 && w <= 1 + (String.length (Value.to_string v) * 2));
    prop "Tany accepts everything" (gen_value 3) (fun v -> Vtype.check Vtype.Tany v);
  ]

let () =
  Alcotest.run "objmodel"
    [
      ( "values",
        [
          Alcotest.test_case "words" `Quick test_value_words;
          Alcotest.test_case "accessors" `Quick test_value_accessors;
          Alcotest.test_case "vtype check" `Quick test_vtype_check;
        ] );
      ( "interfaces",
        [
          Alcotest.test_case "construction" `Quick test_iface_construction;
          Alcotest.test_case "override" `Quick test_iface_override;
          Alcotest.test_case "typed signatures" `Quick test_typed_signatures;
          Alcotest.test_case "typed invoke, arities 0-4" `Quick test_typed_invoke;
          Alcotest.test_case "typed direct impl" `Quick test_typed_direct_impl;
        ] );
      ( "invocation",
        [
          Alcotest.test_case "basic" `Quick test_invoke_basic;
          Alcotest.test_case "errors" `Quick test_invoke_errors;
          Alcotest.test_case "return type checked" `Quick test_invoke_checks_return_type;
          Alcotest.test_case "cost charged" `Quick test_invoke_charges;
          Alcotest.test_case "delegation" `Quick test_delegation;
          Alcotest.test_case "interface evolution" `Quick test_add_interface_evolution;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "composition",
        [
          Alcotest.test_case "forwarding" `Quick test_composite_forwarding;
          Alcotest.test_case "replace child" `Quick test_composite_replace_child;
          Alcotest.test_case "static sealed" `Quick test_composite_static_is_sealed;
          Alcotest.test_case "recursive" `Quick test_composite_recursive;
          Alcotest.test_case "add child" `Quick test_composite_add_child;
          Alcotest.test_case "state pointer" `Quick test_iface_state_pointer;
        ] );
      ("properties", props);
    ]

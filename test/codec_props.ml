(* Properties shared by the ring-message codecs of test_net (Netwire)
   and test_store (Storewire). A codec is a [build] from a generated
   spec and a [parse] back; both run with tracing on and off.

   - [roundtrip]: parse (build spec) gives back every field; the rid
     field sits right after the fixed header and parsing makes it the
     ambient rid; build charges the message length without the rid
     field, and parse the same unless [parse_charge] names what it
     charges (a parse that leaves the payload where it lies charges
     only its header).
   - [hostile]: on random bytes, every truncation of a valid message and
     every single-byte flip of one, parse never raises, and every
     rejection is a named [Error] that leaves the ambient rid alone. *)

open Paramecium

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)
let ctx () = Call_ctx.make ~clock:(Clock.create ()) ~costs:Cost.default ~caller_domain:0
let gen_rid = QCheck2.Gen.int_range 1 0xffff_ffff
let gen_bytes n = QCheck2.Gen.(map Bytes.of_string (string_size ~gen:char (int_bound n)))

(* [f] with tracing [on] and [rid] ambient; tracing is off and the rid
   clear afterwards, as every other test expects *)
let with_tracing on ~rid f =
  Trace.reset ();
  Trace.set_enabled on;
  Trace.set_current rid;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

(* the result of [f] on a fresh context, and the accesses it charged *)
let charged f =
  let c = ctx () in
  let r = f c in
  (r, Call_ctx.accesses c)

(* [rid_at] is the rid field's offset, [None] for an untraced format *)
let roundtrip ?parse_charge name ~gen_spec ~build ~parse ~same ~rid_at =
  prop name
    QCheck2.Gen.(triple bool gen_rid gen_spec)
    (fun (tracing, rid, spec) ->
      with_tracing tracing ~rid (fun () ->
          let msg, built = charged (fun c -> build c spec) in
          let rl = if rid_at = None then 0 else Trace.rid_len () in
          let field_ok =
            match rid_at with
            | Some off when tracing ->
              Int32.to_int (Bytes.get_int32_be msg off) land 0xffff_ffff = rid
            | _ -> true
          in
          Trace.set_current 0;
          let got, parsed = charged (fun c -> parse c msg) in
          let ambient = if tracing && rid_at <> None then rid else 0 in
          match got with
          | Ok v ->
            same spec v && field_ok && Trace.current () = ambient
            && parsed = Option.value parse_charge ~default:built
            && built = Bytes.length msg - rl
          | Error _ -> false))

(* every proper prefix of [m], then [m] with each byte in turn xor-ed
   with [mask] *)
let mutations m mask =
  let n = Bytes.length m in
  List.init n (fun len -> Bytes.sub m 0 len)
  @ List.init n (fun i ->
        let b = Bytes.copy m in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        b)

let hostile name ~gen_spec ~build ~parse =
  prop name
    QCheck2.Gen.(tup6 bool gen_rid gen_rid gen_spec (gen_bytes 40) (int_range 1 255))
    (fun (tracing, ambient, rid, spec, junk, mask) ->
      let valid = with_tracing tracing ~rid (fun () -> build (ctx ()) spec) in
      with_tracing tracing ~rid:ambient (fun () ->
          List.for_all
            (fun input ->
              Trace.set_current ambient;
              match parse (ctx ()) input with
              | Ok _ -> true
              | Error e -> e <> "" && Trace.current () = if tracing then ambient else 0)
            (junk :: mutations valid mask)))

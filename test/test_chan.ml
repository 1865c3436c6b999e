(* Tests for the shared-memory channel subsystem: ring wrap-around,
   back-pressure, doorbell pop-up delivery, the /shared/chan factory,
   interposing on a channel endpoint, and batched RPC over a ring pair
   (including cross-domain failure propagation through
   Rpc.create_client_via). *)

open Paramecium

let fixture () =
  let sys = System.create ~seed:0xBEEF () in
  let k = System.kernel sys in
  (sys, k, Kernel.kernel_domain k)

let switch_to k dom = Mmu.switch_context (Machine.mmu (Kernel.machine k)) dom.Domain.id

(* --- ring ------------------------------------------------------------- *)

let test_ring_wraparound () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k in
  let udom = Kernel.create_domain k ~name:"wrap-consumer" () in
  let chan =
    Chan.create (Kernel.machine k) api.Api.vmem ~name:"wrap" ~slots:4 ~slot_size:8
      ~mode:Chan.Poll ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  (* 30 messages through a 4-slot ring: the free-running indices lap the
     ring many times *)
  for round = 0 to 9 do
    for j = 0 to 2 do
      let msg = Printf.sprintf "%02d-%d" round j in
      Alcotest.(check bool) "enqueue" true (Chan.try_send chan (Bytes.of_string msg))
    done;
    for j = 0 to 2 do
      match Chan.try_recv chan with
      | Some m ->
        Alcotest.(check string) "fifo across wrap"
          (Printf.sprintf "%02d-%d" round j)
          (Bytes.to_string m)
      | None -> Alcotest.fail "ring unexpectedly empty"
    done
  done;
  let s = Chan.stats chan in
  Alcotest.(check int) "sends" 30 s.Chan.sends;
  Alcotest.(check int) "recvs" 30 s.Chan.recvs;
  (* capacity boundary: a 4-slot ring holds exactly 4 *)
  for _ = 1 to 4 do
    Alcotest.(check bool) "fills" true (Chan.try_send chan (Bytes.of_string "x"))
  done;
  Alcotest.(check bool) "refuses when full" false
    (Chan.try_send chan (Bytes.of_string "x"));
  Alcotest.(check int) "pending" 4 (Chan.pending chan);
  Alcotest.(check int) "drained" 4 (List.length (Chan.recv_batch chan ()));
  Alcotest.(check bool) "empty again" true (Chan.try_recv chan = None);
  (* oversized message rejected, bad geometry rejected *)
  (match Chan.try_send chan (Bytes.create 9) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized message must be rejected");
  match
    Chan.create (Kernel.machine k) api.Api.vmem ~slots:4 ~slot_size:6 ~producer:kdom
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "slot_size must be a multiple of 4"

let test_full_ring_backpressure () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k in
  let udom = Kernel.create_domain k ~name:"bp-consumer" () in
  let chan =
    Chan.create (Kernel.machine k) api.Api.vmem ~name:"bp" ~slots:2 ~slot_size:8
      ~mode:Chan.Poll ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  let sched = Kernel.sched k in
  let got = ref [] in
  let producer =
    Scheduler.spawn sched ~name:"bp-producer" ~domain:kdom.Domain.id (fun () ->
        for n = 1 to 5 do
          Chan.send chan (Bytes.of_string (string_of_int n))
        done)
  in
  let consumer =
    Scheduler.spawn sched ~name:"bp-consumer" ~domain:udom.Domain.id (fun () ->
        for _ = 1 to 5 do
          got := Bytes.to_string (Chan.recv chan) :: !got
        done)
  in
  ignore (Scheduler.run sched ());
  Alcotest.(check bool) "producer finished" true
    (producer.Scheduler.state = Scheduler.Finished);
  Alcotest.(check bool) "consumer finished" true
    (consumer.Scheduler.state = Scheduler.Finished);
  Alcotest.(check (list string)) "in order, none lost" [ "1"; "2"; "3"; "4"; "5" ]
    (List.rev !got);
  let s = Chan.stats chan in
  Alcotest.(check bool) "producer parked on the full ring" true (s.Chan.full_blocks >= 1);
  Alcotest.(check bool) "consumer parked on the empty ring" true
    (s.Chan.empty_blocks >= 1)

(* --- doorbells --------------------------------------------------------- *)

let test_doorbell_popup_delivery () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k in
  let udom = Kernel.create_domain k ~name:"bell-consumer" () in
  let chan =
    Chan.create (Kernel.machine k) api.Api.vmem ~name:"bell" ~slots:8 ~slot_size:8
      ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  (* armed at creation: the first enqueue rings; the second, with the
     ring non-empty and the flag cleared, must not — load skips doorbells *)
  ignore (Chan.try_send chan (Bytes.of_string "m1"));
  ignore (Chan.try_send chan (Bytes.of_string "m2"));
  Alcotest.(check int) "only the first enqueue rings" 1 (Chan.stats chan).Chan.doorbells;
  Alcotest.(check int) "both queued" 2 (List.length (Chan.recv_batch chan ()));
  (* the dry drain re-armed; now deliver through the event service *)
  let received = ref [] in
  let ran_in = ref (-1) in
  ignore
    (Chan.on_doorbell chan ~events:api.Api.events ~sched:(Kernel.sched k) (fun () ->
         ran_in := Mmu.current_context (Machine.mmu (Kernel.machine k));
         received :=
           !received @ List.map Bytes.to_string (Chan.recv_batch chan ())));
  ignore (Chan.try_send chan (Bytes.of_string "m3"));
  Alcotest.(check (list string)) "pop-up drained the enqueue" [ "m3" ] !received;
  Alcotest.(check int) "pop-up ran in the consumer's domain" udom.Domain.id !ran_in;
  Alcotest.(check int) "second doorbell" 2 (Chan.stats chan).Chan.doorbells;
  (* drained dry again, so the next enqueue rings again *)
  ignore (Chan.try_send chan (Bytes.of_string "m4"));
  Alcotest.(check (list string)) "re-armed after dry drain" [ "m3"; "m4" ] !received

(* Events matches a doorbell's channel id before it switches into the
   consumer, so ringing one channel costs the same however many other
   channels, each consumed in its own domain, share the vector. *)
let test_doorbell_cost_ignores_other_channels () =
  let ring_cost others =
    let _, k, kdom = fixture () in
    let api = Kernel.api k in
    let events = api.Api.events and sched = Kernel.sched k in
    let consumed_in name =
      let c =
        Chan.create (Kernel.machine k) api.Api.vmem ~name ~slots:4 ~slot_size:8
          ~producer:kdom ()
      in
      ignore (Chan.accept c ~into:(Kernel.create_domain k ~name ()));
      ignore (Chan.on_doorbell c ~events ~sched (fun () -> ignore (Chan.recv_batch c ())));
      c
    in
    let chan = consumed_in "bell" in
    for i = 1 to others do
      ignore (consumed_in (Printf.sprintf "other-%d" i))
    done;
    switch_to k kdom;
    let clock = Kernel.clock k in
    let ring () =
      let t0 = Clock.now clock in
      ignore (Chan.try_send chan (Bytes.of_string "ring"));
      Clock.now clock - t0
    in
    ignore (ring ());
    ring ()
  in
  Alcotest.(check int) "one other channel or eight" (ring_cost 1) (ring_cost 8)

(* What one ring of a plain channel or an MPSC group costs, rung with
   the producer's context current: what the ringing send charges the
   ringer's clock over an identical quiet one, less the store that
   clears the armed flag; what the consumer's CPU pays when it is
   another; the traps counted on any CPU; and, on a plain channel, the
   crossing the ring records. The pop-up drains nothing, so the flag
   stays clear and the second send is quiet. With [far] the consumer is
   pinned on CPU 1 of 2. *)
let doorbell_price ?(far = false) ~mpsc ~from ~into () =
  let sys = System.create ~seed:0xBEEF ~cpus:(if far then 2 else 1) () in
  let k = System.kernel sys in
  let machine = Kernel.machine k and vmem = Kernel.vmem k and events = Kernel.events k in
  let domain = function
    | `Kernel -> Kernel.kernel_domain k
    | `User name -> System.new_domain sys name
  in
  let producer = domain from and consumer = domain into in
  if far then Cpu.pin (System.cpu sys) ~domain:consumer.Domain.id ~cpu:1;
  let sched = if far then Smp.sched (System.smp sys) 1 else Kernel.sched k in
  let send, recorded =
    if mpsc then begin
      let g = Mpsc.create machine vmem ~slots:8 ~slot_size:16 ~consumer () in
      let tx = Mpsc.attach g ~producer in
      ignore (Mpsc.on_doorbell g ~events ~sched ignore);
      ((fun m -> Mpsc.try_send tx m), fun () -> None)
    end
    else begin
      let c = Chan.create machine vmem ~slots:8 ~slot_size:16 ~producer () in
      ignore (Chan.accept c ~into:consumer);
      ignore (Chan.on_doorbell c ~events ~sched ignore);
      ((fun m -> Chan.try_send c m), fun () -> Some (Chan.stats c).Chan.bell_cycles)
    end
  in
  Mmu.switch_context (Machine.mmu machine) producer.Domain.id;
  let cpus = Machine.cpus machine in
  let far_work () =
    if far then Clock.now cpus.(1).Machine.clock - cpus.(1).Machine.synced else 0
  in
  let traps () =
    Array.fold_left (fun n c -> n + Clock.read c.Machine.clock Clock.Trap) 0 cpus
  in
  let send () =
    let t0 = Clock.now (Machine.clock machine) and w0 = far_work () in
    Alcotest.(check bool) "sent" true (send (Bytes.of_string "ring"));
    (Clock.now (Machine.clock machine) - t0, far_work () - w0)
  in
  let traps0 = traps () in
  let ringing, far_paid = send () in
  let traps = traps () - traps0 in
  let quiet, _ = send () in
  let paid = ringing - quiet - (Machine.costs machine).Cost.mem_write in
  ([ paid; far_paid; traps ], recorded ())

(* Code in the kernel's protection domain enters the event service by a
   call; a user domain traps into it; a consumer on another CPU is sent
   an IPI, whoever rings. The context switches are paid only into
   another domain. *)
let test_doorbell_price_follows_ringer () =
  let check label expect (got, recorded) =
    Alcotest.(check (list int)) label expect got;
    (* a channel records the crossing the ringer and the consumer's CPU
       paid *)
    match (expect, recorded) with
    | paid :: far_paid :: _, Some r ->
      Alcotest.(check int) (label ^ ": recorded") (paid + far_paid) r
    | _ -> ()
  in
  List.iter
    (fun mpsc ->
      let kind = if mpsc then "mpsc " else "chan " in
      (* call 8 + pop-up 60 *)
      check (kind ^ "kernel -> kernel") [ 68; 0; 0 ]
        (doorbell_price ~mpsc ~from:`Kernel ~into:`Kernel ());
      (* call 8 + two switches 640 + pop-up 60 *)
      check (kind ^ "kernel -> user") [ 708; 0; 0 ]
        (doorbell_price ~mpsc ~from:`Kernel ~into:(`User "bell-user") ());
      (* trap 280 + two switches 640 + pop-up 60 *)
      check (kind ^ "user -> kernel") [ 980; 0; 1 ]
        (doorbell_price ~mpsc ~from:(`User "bell-user") ~into:`Kernel ());
      (* the ringer pays the ipi 360; the consumer's CPU takes the trap,
         the two switches and the pop-up *)
      check (kind ^ "kernel -> user on another cpu") [ 360; 980; 1 ]
        (doorbell_price ~far:true ~mpsc ~from:`Kernel ~into:(`User "bell-far") ()))
    [ false; true ]

(* The length word is in shared memory the producer writes. One that
   claims more than the slot holds is consumed unread and counted, the
   slots behind it still arrive, and the ring goes on working. *)
let test_scribbled_length_word () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k and machine = Kernel.machine k in
  let udom = Kernel.create_domain k ~name:"len-consumer" () in
  let chan =
    Chan.create machine api.Api.vmem ~name:"len" ~slots:8 ~slot_size:8 ~mode:Chan.Poll
      ~producer:kdom ()
  in
  ignore (Chan.accept chan ~into:udom);
  let send m =
    Alcotest.(check bool) "enqueue" true (Chan.try_send chan (Bytes.of_string m))
  in
  List.iter send [ "m0"; "m1"; "m2"; "m3"; "m4"; "m5" ];
  (* slot i's length word, written in the producer's context *)
  let scribble i len =
    Machine.write32 machine kdom.Domain.id
      (Chan.producer_base chan + Chan.header_bytes + (i * (4 + 8)))
      len
  in
  scribble 1 9;
  scribble 2 40;
  scribble 4 5000;
  let clock = Kernel.clock k in
  let counted = Clock.counter clock "chan_bad_length" in
  Alcotest.(check (list string)) "the intact slots, in order" [ "m0"; "m3"; "m5" ]
    (List.map Bytes.to_string (Chan.recv_batch chan ()));
  let s = Chan.stats chan in
  Alcotest.(check int) "refused" 3 s.Chan.bad_lengths;
  Alcotest.(check int) "received" 3 s.Chan.recvs;
  Alcotest.(check int) "counted" 3 (Clock.counter clock "chan_bad_length" - counted);
  Alcotest.(check int) "nothing pending" 0 (Chan.pending chan);
  send "m6";
  scribble 6 0xFFFF_FFFF;
  Alcotest.(check (option string)) "a refused last slot leaves the ring empty" None
    (Option.map Bytes.to_string (Chan.try_recv chan));
  send "after";
  Alcotest.(check (option string)) "the ring still works" (Some "after")
    (Option.map Bytes.to_string (Chan.try_recv chan))

(* --- MPSC groups -------------------------------------------------------- *)

let mpsc_fixture ?(mode = Chan.Poll) ?(slots = 4) () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k in
  let p2 = Kernel.create_domain k ~name:"mpsc-p2" () in
  let p3 = Kernel.create_domain k ~name:"mpsc-p3" () in
  let cons = Kernel.create_domain k ~name:"mpsc-cons" () in
  let g =
    Mpsc.create (Kernel.machine k) api.Api.vmem ~name:"mg" ~slots ~slot_size:12
      ~mode ~consumer:cons ()
  in
  (k, kdom, p2, p3, cons, g)

let send_as k d tx msg =
  let mmu = Machine.mmu (Kernel.machine k) in
  let home = Mmu.current_context mmu in
  Mmu.switch_context mmu d.Domain.id;
  let ok = Mpsc.try_send tx (Bytes.of_string msg) in
  Mmu.switch_context mmu home;
  ok

let test_mpsc_interleaved_wraparound () =
  let k, kdom, p2, p3, _, g = mpsc_fixture () in
  let txs = List.map (fun d -> (d, Mpsc.attach g ~producer:d)) [ kdom; p2; p3 ] in
  Alcotest.(check int) "three producers" 3 (Mpsc.producers g);
  let reserves0 = Clock.counter (Kernel.clock k) "mpsc_reserve" in
  (* ten interleaved rounds through 4-slot sub-rings, drained every other
     round: the free-running indices lap every sub-ring several times *)
  let got = ref [] in
  for round = 0 to 9 do
    List.iteri
      (fun i (d, tx) ->
        Alcotest.(check bool) "enqueue" true
          (send_as k d tx (Printf.sprintf "p%d-%02d" i round)))
      txs;
    if round mod 2 = 1 then
      got := !got @ List.map Bytes.to_string (Mpsc.recv_batch g ())
  done;
  got := !got @ List.map Bytes.to_string (Mpsc.recv_batch g ());
  Alcotest.(check int) "all messages delivered" 30 (List.length !got);
  (* per-producer FIFO survives the interleaving and the wrap *)
  List.iteri
    (fun i _ ->
      let mine =
        List.filter
          (fun m -> String.length m > 1 && m.[1] = Char.chr (Char.code '0' + i))
          !got
      in
      Alcotest.(check (list string)) "per-producer order intact"
        (List.init 10 (fun r -> Printf.sprintf "p%d-%02d" i r))
        mine)
    txs;
  let s = Mpsc.stats g in
  Alcotest.(check int) "sends" 30 s.Mpsc.sends;
  Alcotest.(check int) "recvs" 30 s.Mpsc.recvs;
  (* every enqueue paid exactly one reserve through the group header *)
  Alcotest.(check int) "one reserve per send" 30 s.Mpsc.reserves;
  Alcotest.(check int) "reserve counter advanced" 30
    (Clock.counter (Kernel.clock k) "mpsc_reserve" - reserves0)

let test_mpsc_backpressure_fairness () =
  let k, kdom, p2, _, _, g = mpsc_fixture ~slots:2 () in
  let ta = Mpsc.attach g ~producer:kdom in
  let tb = Mpsc.attach g ~producer:p2 in
  (* A fills its own sub-ring; the refusal is A's alone — B still has
     room, so one producer's back-pressure never stalls another *)
  Alcotest.(check bool) "a1" true (send_as k kdom ta "a1");
  Alcotest.(check bool) "a2" true (send_as k kdom ta "a2");
  Alcotest.(check bool) "A's ring is full" false (send_as k kdom ta "a3");
  let dropped =
    let mmu = Machine.mmu (Kernel.machine k) in
    let home = Mmu.current_context mmu in
    Mmu.switch_context mmu kdom.Domain.id;
    let r = Mpsc.send_or_drop ta (Bytes.of_string "a3") in
    Mmu.switch_context mmu home;
    r
  in
  Alcotest.(check bool) "send_or_drop refuses too" false dropped;
  Alcotest.(check bool) "B unaffected" true (send_as k p2 tb "b1");
  Alcotest.(check int) "one drop recorded" 1
    (Chan.stats (Mpsc.sub_ring ta)).Chan.drops;
  (* the drain round-robins one message per sub-ring per pass: the lone
     B message is served between A's two, not after them *)
  Alcotest.(check (list string)) "round-robin interleave" [ "a1"; "b1"; "a2" ]
    (List.map Bytes.to_string (Mpsc.recv_batch g ()));
  Alcotest.(check bool) "A has room again" true (send_as k kdom ta "a3");
  Alcotest.(check (list string)) "tail drained" [ "a3" ]
    (List.map Bytes.to_string (Mpsc.recv_batch g ()))

let test_mpsc_doorbell_coalescing () =
  let k, kdom, p2, p3, _, g = mpsc_fixture ~mode:Chan.Doorbell ~slots:8 () in
  let api = Kernel.api k in
  let ta = Mpsc.attach g ~producer:kdom in
  let tb = Mpsc.attach g ~producer:p2 in
  let tc = Mpsc.attach g ~producer:p3 in
  let bells = ref 0 in
  (* count pop-ups without draining, so the armed flag stays clear for
     the rest of the burst *)
  ignore
    (Mpsc.on_doorbell g ~events:api.Api.events ~sched:(Kernel.sched k) (fun () ->
         incr bells));
  Alcotest.(check bool) "first send" true (send_as k kdom ta "m1");
  Alcotest.(check bool) "second send" true (send_as k p2 tb "m2");
  Alcotest.(check bool) "third send" true (send_as k p3 tc "m3");
  (* one trap for the whole three-producer burst *)
  Alcotest.(check int) "doorbells coalesced" 1 !bells;
  Alcotest.(check int) "group counted the same" 1 (Mpsc.stats g).Mpsc.doorbells;
  Alcotest.(check int) "burst pending" 3 (Mpsc.pending g);
  Alcotest.(check int) "burst drained" 3 (List.length (Mpsc.recv_batch g ()));
  (* the dry drain re-armed: the next producer, whichever it is, rings *)
  Alcotest.(check bool) "post-drain send" true (send_as k p3 tc "m4");
  Alcotest.(check int) "re-armed doorbell" 2 !bells;
  (* a dry drain costs only the dirty-hint read and returns nothing *)
  ignore (Mpsc.recv_batch g ());
  Alcotest.(check (list string)) "dry drain empty" []
    (List.map Bytes.to_string (Mpsc.recv_batch g ()))

(* A drain stopped at [max] leaves the rest for the next drain. *)
let test_mpsc_bounded_drain () =
  let k, kdom, _, _, _, g = mpsc_fixture () in
  let tx = Mpsc.attach g ~producer:kdom in
  List.iter (fun m -> ignore (send_as k kdom tx m)) [ "a"; "b"; "c" ];
  let drain ?max () = List.map Bytes.to_string (Mpsc.recv_batch ?max g ()) in
  Alcotest.(check (list string)) "bounded drain" [ "a" ] (drain ~max:1 ());
  Alcotest.(check (list string)) "the rest follows" [ "b"; "c" ] (drain ())

(* A producer that scribbles its own sub-ring's length word cannot stop
   the consumer's drain of the group. *)
let test_mpsc_scribbled_length_word () =
  let k, kdom, p2, _, _, g = mpsc_fixture () in
  let ta = Mpsc.attach g ~producer:kdom in
  let tb = Mpsc.attach g ~producer:p2 in
  ignore (send_as k kdom ta "a1");
  ignore (send_as k p2 tb "b1");
  ignore (send_as k p2 tb "b2");
  let sub = Mpsc.sub_ring tb in
  Machine.write32 (Kernel.machine k) p2.Domain.id
    (Chan.producer_base sub + Chan.header_bytes)
    5000;
  Alcotest.(check (list string)) "the drain goes on" [ "a1"; "b2" ]
    (List.map Bytes.to_string (Mpsc.recv_batch g ()));
  Alcotest.(check int) "refused" 1 (Chan.stats sub).Chan.bad_lengths;
  Alcotest.(check int) "nothing pending" 0 (Mpsc.pending g)

(* --- ids are per machine ------------------------------------------------ *)

(* The ids and default names an unnamed ring and an unnamed group get on
   a fresh machine. *)
let fresh_ids () =
  let _, k, kdom = fixture () in
  let machine = Kernel.machine k and vmem = Kernel.vmem k in
  let c = Chan.create machine vmem ~producer:kdom () in
  let g = Mpsc.create machine vmem ~consumer:kdom () in
  (Chan.id c, Chan.name c, Mpsc.id g, Mpsc.name g)

let test_ids_per_machine () =
  let first = fresh_ids () in
  (* another machine creates rings in between: a fresh machine's ids do
     not depend on it *)
  let _, k, kdom = fixture () in
  let machine = Kernel.machine k and vmem = Kernel.vmem k in
  for _ = 1 to 3 do
    ignore (Chan.create machine vmem ~producer:kdom ())
  done;
  ignore (Mpsc.create machine vmem ~consumer:kdom ());
  let id_c, name_c, id_g, name_g = fresh_ids () in
  let fid_c, fname_c, fid_g, fname_g = first in
  Alcotest.(check int) "channel id" fid_c id_c;
  Alcotest.(check string) "channel name" fname_c name_c;
  Alcotest.(check int) "group id" fid_g id_g;
  Alcotest.(check string) "group name" fname_g name_g;
  (* one counter: a group never reuses a channel's id on the shared
     doorbell vector *)
  Alcotest.(check bool) "ids disjoint" true (id_c <> id_g);
  Alcotest.(check string) "default names follow the ids"
    (Printf.sprintf "chan%d mpsc%d" id_c id_g)
    (name_c ^ " " ^ name_g)

(* --- doorbell dispatch on the shared vector ----------------------------- *)

(* One key generation for every case; each case boots its own kernel. *)
let dispatch_root =
  lazy
    (Authority.ca (System.authority (System.create ~seed:0xD00B ~key_bits:384 ())))

(* A ring under test, plain or MPSC: per producer its domain, its own
   SPSC ring and its send; per producer the model queue of sequence
   numbers sent and not yet received; the consumer's bounded drain. *)
type ring = {
  txs : (Domain.t * Chan.t * (bytes -> bool)) array;
  model : int Queue.t array;
  drain : unit -> bytes list;
  doorbells : unit -> int;
  runs : int ref;  (** pop-up runs *)
}

(* per ring: [None] for a plain channel or [Some n] for an MPSC group of
   [n] producers, its slots, and its pop-up's drain bound; then the
   sends as (ring, producer) picks *)
let gen_dispatch =
  QCheck2.Gen.(
    let spec kind =
      map2 (fun slots max -> (kind, slots, max)) (int_range 2 4) (opt (int_range 1 3))
    in
    let* plain = int_range 1 6 and* groups = list_size (int_range 1 3) (int_range 1 3) in
    let* specs =
      flatten_l
        (List.init plain (fun _ -> spec None) @ List.map (fun n -> spec (Some n)) groups)
    in
    let* specs = shuffle_l specs in
    let+ sends = list_size (int_bound 60) (pair nat nat) in
    (specs, sends))

let print_dispatch (specs, sends) =
  Printf.sprintf "rings [%s] sends [%s]"
    (String.concat "; "
       (List.map
          (fun (kind, slots, max) ->
            Printf.sprintf "%s/%d/%s"
              (match kind with None -> "chan" | Some n -> Printf.sprintf "mpsc%d" n)
              slots
              (match max with None -> "all" | Some m -> string_of_int m))
          specs))
    (String.concat "; " (List.map (fun (r, p) -> Printf.sprintf "%d.%d" r p) sends))

let dispatch_holds (specs, sends) =
  let k = Kernel.boot ~root:(Lazy.force dispatch_root) () in
  let machine = Kernel.machine k and vmem = Kernel.vmem k in
  let events = Kernel.events k and sched = Kernel.sched k in
  let mmu = Machine.mmu machine in
  let kdom = Kernel.kernel_domain k in
  let ok = ref true in
  let receive r i msg =
    match List.map int_of_string (String.split_on_char ':' (Bytes.to_string msg)) with
    | [ ri; p; seq ] when ri = i && p < Array.length r.model ->
      let q = r.model.(p) in
      if Queue.is_empty q || Queue.pop q <> seq then ok := false
    | _ -> ok := false
  in
  let make i (kind, slots, max) =
    let domain what = Kernel.create_domain k ~name:(Printf.sprintf "%s%d" what i) () in
    let consumer = domain "c" in
    let r, on_doorbell =
      match kind with
      | None ->
        let producer = domain "p" in
        let c = Chan.create machine vmem ~slots ~slot_size:16 ~producer () in
        ignore (Chan.accept c ~into:consumer);
        ( {
            txs = [| (producer, c, fun m -> Chan.try_send c m) |];
            model = [| Queue.create () |];
            drain = (fun () -> Chan.recv_batch ?max c ());
            doorbells = (fun () -> (Chan.stats c).Chan.doorbells);
            runs = ref 0;
          },
          Chan.on_doorbell c ~events ~sched )
      | Some n ->
        let g = Mpsc.create machine vmem ~slots ~slot_size:16 ~consumer () in
        let txs =
          Array.init n (fun j ->
              let producer = domain (Printf.sprintf "p%d." j) in
              let tx = Mpsc.attach g ~producer in
              (producer, Mpsc.sub_ring tx, fun m -> Mpsc.try_send tx m))
        in
        ( {
            txs;
            model = Array.init n (fun _ -> Queue.create ());
            drain = (fun () -> Mpsc.recv_batch ?max g ());
            doorbells = (fun () -> (Mpsc.stats g).Mpsc.doorbells);
            runs = ref 0;
          },
          Mpsc.on_doorbell g ~events ~sched )
    in
    ignore
      (on_doorbell (fun () ->
           incr r.runs;
           List.iter (receive r i) (r.drain ())));
    r
  in
  let rings = Array.of_list (List.mapi make specs) in
  List.iteri
    (fun seq (ri, pi) ->
      let i = ri mod Array.length rings in
      let r = rings.(i) in
      let p = pi mod Array.length r.txs in
      let dom, sub, send = r.txs.(p) in
      (* the send succeeds exactly when the producer's own ring has room *)
      let room = Chan.pending sub < Chan.slots sub in
      if room then Queue.push seq r.model.(p);
      Mmu.switch_context mmu dom.Domain.id;
      let sent = send (Bytes.of_string (Printf.sprintf "%d:%d:%d" i p seq)) in
      Mmu.switch_context mmu kdom.Domain.id;
      if sent <> room then ok := false)
    sends;
  Kernel.step k ~ticks:2 ();
  Array.iteri
    (fun i r ->
      (* each pop-up ran once per doorbell of its own ring, never for
         another ring's *)
      if !(r.runs) <> r.doorbells () then ok := false;
      (* the consumer polls with its bound until a drain comes back
         empty: what the pop-ups left behind arrives in per-producer
         order, and then every model queue is empty *)
      let rec poll () =
        match r.drain () with
        | [] -> ()
        | msgs ->
          List.iter (receive r i) msgs;
          poll ()
      in
      poll ();
      if not (Array.for_all Queue.is_empty r.model) then ok := false)
    rings;
  !ok

let dispatch_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"doorbell dispatch is per ring, per-producer FIFO"
       ~print:print_dispatch gen_dispatch dispatch_holds)

(* --- the /shared/chan factory and endpoint interposition --------------- *)

let test_factory_and_interposed_monitor () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k in
  let udom = Kernel.create_domain k ~name:"chan-user" () in
  (* the producer drives the factory through the name space, via proxy *)
  let factory = Kernel.bind k udom "/shared/chan" in
  Alcotest.(check bool) "factory reached via proxy" true (Proxy.is_proxy factory);
  switch_to k udom;
  let uctx = Kernel.ctx k udom in
  (match
     Invoke.call_exn uctx factory ~iface:"chanfactory" ~meth:"create"
       [ Value.Str "pipe"; Value.Int 8; Value.Int 64 ]
   with
  | Value.Handle _ -> ()
  | v -> Alcotest.failf "create returned %s" (Value.to_string v));
  (match
     Invoke.call uctx factory ~iface:"chanfactory" ~meth:"create"
       [ Value.Str "pipe"; Value.Int 8; Value.Int 64 ]
   with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "duplicate channel name must fault");
  (* the consumer accepts from its own domain *)
  switch_to k kdom;
  let kctx = Kernel.ctx k kdom in
  let kfactory = Kernel.bind k kdom "/shared/chan" in
  (match
     Invoke.call_exn kctx kfactory ~iface:"chanfactory" ~meth:"list" []
   with
  | Value.List [ Value.Str "pipe" ] -> ()
  | v -> Alcotest.failf "list returned %s" (Value.to_string v));
  (match
     Invoke.call_exn kctx kfactory ~iface:"chanfactory" ~meth:"accept"
       [ Value.Str "pipe" ]
   with
  | Value.Handle _ -> ()
  | v -> Alcotest.failf "accept returned %s" (Value.to_string v));
  (* interpose a monitor over the tx endpoint, like any agent *)
  let tx = Kernel.bind k udom "/chan/pipe/tx" in
  let seen = ref [] in
  let agent =
    Interpose.wrap api udom ~target:tx
      ~on_call:(fun ~iface ~meth _args -> seen := (iface ^ "." ^ meth) :: !seen)
      ()
  in
  (match Interpose.attach api ~path:"/chan/pipe/tx" ~agent with
  | Ok prev -> Alcotest.(check bool) "previous binding was the endpoint" true (prev == tx)
  | Error e -> Alcotest.fail e);
  let bound = Kernel.bind k udom "/chan/pipe/tx" in
  Alcotest.(check bool) "rebinding resolves to the agent" true (bound == agent);
  switch_to k udom;
  ignore
    (Invoke.call_exn uctx bound ~iface:"chan.tx" ~meth:"send"
       [ Value.Blob (Bytes.of_string "ping") ]);
  Alcotest.(check (list string)) "monitor saw the send" [ "chan.tx.send" ] !seen;
  (* the message still crossed: the consumer's rx endpoint drains it *)
  switch_to k kdom;
  let rx = Kernel.bind k kdom "/chan/pipe/rx" in
  (match Invoke.call_exn kctx rx ~iface:"chan.rx" ~meth:"recv" [] with
  | Value.List [ Value.Blob b ] ->
    Alcotest.(check string) "payload intact through the agent" "ping"
      (Bytes.to_string b)
  | v -> Alcotest.failf "recv returned %s" (Value.to_string v))

(* --- batched RPC over a ring pair -------------------------------------- *)

let rpc_fixture () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k in
  let udom = Kernel.create_domain k ~name:"rpc-client" () in
  let conn = Rpc_chan.connect api ~client:udom ~server:kdom () in
  let procedures =
    [
      ("echo", fun _ctx b -> Ok b);
      ( "upper",
        fun _ctx b -> Ok (Bytes.of_string (String.uppercase_ascii (Bytes.to_string b)))
      );
      ("fail", fun _ctx _ -> Error "application exploded");
    ]
  in
  (* raw requests carry the classic Rpc wire format over the channel:
     decode, dispatch to the same procedure table, encode the response *)
  let raw ctx req =
    match Rpc.decode_request req with
    | Error e -> Error e
    | Ok (id, _rport, name, args) ->
      let status, payload =
        match List.assoc_opt name procedures with
        | Some h -> (
          match h ctx args with
          | Ok r -> (Rpc.status_ok, r)
          | Error e -> (Rpc.status_error, Bytes.of_string e))
        | None -> (Rpc.status_error, Bytes.of_string ("no such procedure " ^ name))
      in
      Ok (Rpc.encode_response ~id ~status payload)
  in
  Rpc_chan.serve api conn ~procedures ~raw ();
  let client = Rpc_chan.client api conn () in
  switch_to k udom;
  (k, udom, conn, client)

let test_rpc_chan_round_trip () =
  let k, udom, conn, client = rpc_fixture () in
  let ctx = Kernel.ctx k udom in
  (match
     Invoke.call_exn ctx client ~iface:"rpc.batch" ~meth:"call"
       [ Value.Str "upper"; Value.Blob (Bytes.of_string "shout") ]
   with
  | Value.Blob b -> Alcotest.(check string) "result" "SHOUT" (Bytes.to_string b)
  | v -> Alcotest.failf "call returned %s" (Value.to_string v));
  let sends_before = (Chan.stats (Rpc_chan.request_chan conn)).Chan.sends in
  let batch =
    Value.List
      (List.init 8 (fun n ->
           Value.Pair
             (Value.Str "echo", Value.Blob (Bytes.of_string (string_of_int n)))))
  in
  (match Invoke.call_exn ctx client ~iface:"rpc.batch" ~meth:"call_many" [ batch ] with
  | Value.List results ->
    Alcotest.(check int) "all results back" 8 (List.length results);
    List.iteri
      (fun n v ->
        match v with
        | Value.Blob b -> Alcotest.(check string) "echoed in order" (string_of_int n) (Bytes.to_string b)
        | _ -> Alcotest.fail "blob expected")
      results
  | v -> Alcotest.failf "call_many returned %s" (Value.to_string v));
  let sends_after = (Chan.stats (Rpc_chan.request_chan conn)).Chan.sends in
  Alcotest.(check int) "8 calls crossed in one ring message" 1
    (sends_after - sends_before);
  (* remote application errors surface as faults, across the domains *)
  match
    Invoke.call ctx client ~iface:"rpc.batch" ~meth:"call"
      [ Value.Str "fail"; Value.Blob Bytes.empty ]
  with
  | Error (Oerror.Fault msg) ->
    Alcotest.(check string) "remote error text"
      "rpc_chan: remote error: application exploded" msg
  | _ -> Alcotest.fail "remote error must fault"

let test_rpc_chan_unknown_procedure () =
  let k, udom, _conn, client = rpc_fixture () in
  let ctx = Kernel.ctx k udom in
  match
    Invoke.call ctx client ~iface:"rpc.batch" ~meth:"call"
      [ Value.Str "nope"; Value.Blob Bytes.empty ]
  with
  | Error (Oerror.Fault msg) ->
    Alcotest.(check string) "unknown procedure"
      "rpc_chan: remote error: no such procedure nope" msg
  | _ -> Alcotest.fail "unknown procedure must fault"

let test_rpc_over_channel_transport () =
  let k, udom, _conn, client = rpc_fixture () in
  let api = Kernel.api k in
  (* the classic Rpc client, riding the channel instead of the stack *)
  let rpc = Rpc.create_client_via api udom ~transport:client () in
  let ctx = Kernel.ctx k udom in
  (match
     Invoke.call_exn ctx rpc ~iface:"rpc" ~meth:"call"
       [ Value.Str "upper"; Value.Blob (Bytes.of_string "quiet") ]
   with
  | Value.Blob b -> Alcotest.(check string) "result via channel" "QUIET" (Bytes.to_string b)
  | v -> Alcotest.failf "call returned %s" (Value.to_string v));
  (* Rpc's own failure propagation is carrier-independent *)
  match
    Invoke.call ctx rpc ~iface:"rpc" ~meth:"call"
      [ Value.Str "fail"; Value.Blob Bytes.empty ]
  with
  | Error (Oerror.Fault msg) ->
    Alcotest.(check bool) "remote error prefixed" true
      (String.length msg >= 4 && String.sub msg 0 4 = "rpc:")
  | _ -> Alcotest.fail "remote failure must fault through both layers"

(* the channel-backed server mode: same "rpc.server" object, same wire
   format, served from the ring pair instead of a stack port *)
let test_rpc_chan_create_server () =
  let _, k, kdom = fixture () in
  let api = Kernel.api k in
  let udom = Kernel.create_domain k ~name:"rpc-client2" () in
  let conn = Rpc_chan.connect api ~client:udom ~server:kdom () in
  let server =
    Rpc_chan.create_server api conn
      ~procedures:
        [ ("echo", fun _ctx b -> Ok b); ("fail", fun _ctx _ -> Error "boom") ]
      ()
  in
  let transport = Rpc_chan.client api conn () in
  let rpc = Rpc.create_client_via api udom ~transport () in
  switch_to k udom;
  let uctx = Kernel.ctx k udom in
  (match
     Invoke.call_exn uctx rpc ~iface:"rpc" ~meth:"call"
       [ Value.Str "echo"; Value.Blob (Bytes.of_string "ping") ]
   with
  | Value.Blob b -> Alcotest.(check string) "echoed" "ping" (Bytes.to_string b)
  | v -> Alcotest.failf "call returned %s" (Value.to_string v));
  (match
     Invoke.call uctx rpc ~iface:"rpc" ~meth:"call"
       [ Value.Str "fail"; Value.Blob Bytes.empty ]
   with
  | Error (Oerror.Fault _) -> ()
  | _ -> Alcotest.fail "application error must fault");
  switch_to k kdom;
  let kctx = Kernel.ctx k kdom in
  (match Invoke.call_exn kctx server ~iface:"rpc.server" ~meth:"requests" [] with
  | Value.Int n -> Alcotest.(check int) "both requests counted" 2 n
  | v -> Alcotest.failf "requests returned %s" (Value.to_string v));
  (match Invoke.call_exn kctx server ~iface:"rpc.server" ~meth:"failures" [] with
  | Value.Int n -> Alcotest.(check int) "one failure counted" 1 n
  | v -> Alcotest.failf "failures returned %s" (Value.to_string v));
  match Invoke.call_exn kctx server ~iface:"rpc.server" ~meth:"poll" [] with
  | Value.Int n -> Alcotest.(check int) "nothing left pending" 0 n
  | v -> Alcotest.failf "poll returned %s" (Value.to_string v)

(* --- hostile request batches ------------------------------------------ *)

(* Batches whose header lies about what follows: a lone count byte, a
   count with no segments, and a segment length past the end. Each is
   dropped with a warning by the server's doorbell pop-up — no crash —
   and the next well-formed call is still answered. *)
let test_rpc_chan_hostile_batches () =
  let k, udom, conn, client = rpc_fixture () in
  let j = Obs.journal (Clock.obs (Kernel.clock k)) in
  let crashes () = Journal.count j Journal.Crash in
  let ctx = Kernel.ctx k udom in
  List.iter
    (fun batch ->
      let before = crashes () in
      Alcotest.(check bool) "enqueued" true
        (Chan.try_send (Rpc_chan.request_chan conn) (Bytes.of_string batch));
      Alcotest.(check int) (Printf.sprintf "%S: no crash" batch) before (crashes ());
      match
        Invoke.call_exn ctx client ~iface:"rpc.batch" ~meth:"call"
          [ Value.Str "echo"; Value.Blob (Bytes.of_string "still here") ]
      with
      | Value.Blob b ->
        Alcotest.(check string) "answered after" "still here" (Bytes.to_string b)
      | v -> Alcotest.failf "call returned %s" (Value.to_string v))
    [ "\x00"; "\x00\x05"; "\x00\x01\x00\xc8abc" ]

let codec_ctx () =
  Call_ctx.make ~clock:(Clock.create ()) ~costs:Cost.unit_costs ~caller_domain:0

let walk batch =
  let segs = ref [] in
  let r =
    Rpc_chan.iter_segments (codec_ctx ()) batch (fun ~off ~len ->
        segs := Bytes.sub batch off len :: !segs)
  in
  (r, List.rev !segs)

(* with tracing on the header carries a request id word *)
let with_trace traced f =
  if not traced then f ()
  else begin
    Trace.set_enabled true;
    Fun.protect ~finally:(fun () -> Trace.set_enabled false; Trace.reset ()) f
  end

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let gen_segs =
  QCheck2.Gen.(
    list_size (int_bound 6) (map Bytes.of_string (string_size ~gen:char (int_bound 24))))

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> Bytes.equal x y && is_prefix xs ys
  | _ :: _, [] -> false

let batch_props =
  QCheck2.Gen.
    [
      prop "well-formed batches round-trip" (pair bool gen_segs) (fun (traced, segs) ->
          with_trace traced (fun () ->
              match walk (Rpc_chan.assemble (codec_ctx ()) segs) with
              | Ok (), got -> List.equal Bytes.equal segs got
              | Error _, _ -> false));
      prop "cut batches deliver a prefix, never raise" (triple bool gen_segs nat)
        (fun (traced, segs, cut) ->
          with_trace traced (fun () ->
              let b = Rpc_chan.assemble (codec_ctx ()) segs in
              let b = Bytes.sub b 0 (cut mod (Bytes.length b + 1)) in
              let _, got = walk b in
              is_prefix got segs));
      prop "random and flipped batches never raise"
        (triple bool gen_segs (pair (string_size ~gen:char (int_bound 40)) (pair nat char)))
        (fun (traced, segs, (junk, (pos, c))) ->
          with_trace traced (fun () ->
              let b = Rpc_chan.assemble (codec_ctx ()) segs in
              Bytes.set b (pos mod Bytes.length b) c;
              List.for_all
                (fun batch -> match walk batch with Ok (), _ | Error _, _ -> true)
                [ b; Bytes.of_string junk ]));
    ]

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "chan"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around" `Quick test_ring_wraparound;
          Alcotest.test_case "full-ring back-pressure" `Quick
            test_full_ring_backpressure;
          Alcotest.test_case "scribbled length word" `Quick test_scribbled_length_word;
        ] );
      ( "doorbell",
        [
          Alcotest.test_case "pop-up delivery" `Quick test_doorbell_popup_delivery;
          Alcotest.test_case "other channels cost a doorbell nothing" `Quick
            test_doorbell_cost_ignores_other_channels;
          Alcotest.test_case "a doorbell's price follows who rings it" `Quick
            test_doorbell_price_follows_ringer;
        ] );
      ( "mpsc",
        [
          Alcotest.test_case "interleaved wrap-around" `Quick
            test_mpsc_interleaved_wraparound;
          Alcotest.test_case "back-pressure fairness" `Quick
            test_mpsc_backpressure_fairness;
          Alcotest.test_case "doorbell coalescing" `Quick
            test_mpsc_doorbell_coalescing;
          Alcotest.test_case "bounded drain" `Quick test_mpsc_bounded_drain;
          Alcotest.test_case "scribbled length word" `Quick
            test_mpsc_scribbled_length_word;
          Alcotest.test_case "ids are per machine" `Quick test_ids_per_machine;
          dispatch_prop;
        ] );
      ( "factory",
        [
          Alcotest.test_case "namespace + interposed monitor" `Quick
            test_factory_and_interposed_monitor;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "round trip + batching" `Quick test_rpc_chan_round_trip;
          Alcotest.test_case "unknown procedure" `Quick test_rpc_chan_unknown_procedure;
          Alcotest.test_case "Rpc over channel transport" `Quick
            test_rpc_over_channel_transport;
          Alcotest.test_case "channel-backed server" `Quick
            test_rpc_chan_create_server;
          Alcotest.test_case "hostile batch headers" `Quick
            test_rpc_chan_hostile_batches;
        ]
        @ batch_props );
    ]

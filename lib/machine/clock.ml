(* The events the system counts, one constructor each, in the order of
   their names. Each owns one slot of a clock's counter array, so
   counting is an array store: no string is hashed and nothing is
   allocated. *)
type event =
  | Blk_complete
  | Blk_error
  | Blk_issue
  | Blk_wait
  | Bytecode_rejection
  | Bytecode_verification
  | Cache_flush
  | Cert_rejection
  | Cert_validation
  | Chan_bad_length
  | Chan_cacheline
  | Chan_doorbell
  | Chan_drop
  | Chan_empty_block
  | Chan_full_block
  | Chan_recv
  | Chan_send
  | Component_load
  | Component_mem_access
  | Context_switch
  | Cpu_sync
  | Cross_domain_call
  | Delegation
  | Inline_specialization
  | Inlined_invocation
  | Interrupt
  | Ipi
  | Method_invocation
  | Mpsc_cas_retry
  | Mpsc_doorbell
  | Mpsc_reserve
  | Ns_bind
  | Online_certification
  | Page_fault
  | Pager_fault
  | Popup_promotion
  | Proto_thread
  | Proxy_fault
  | Sfi_check
  | Sfi_crossing
  | Spurious_interrupt
  | Steal
  | Thread_crash
  | Thread_create
  | Thread_switch
  | Tlb_fill
  | Trap
  | Vm_fault
  | Vm_wild_access

let slot = function
  | Blk_complete -> 0
  | Blk_error -> 1
  | Blk_issue -> 2
  | Blk_wait -> 3
  | Bytecode_rejection -> 4
  | Bytecode_verification -> 5
  | Cache_flush -> 6
  | Cert_rejection -> 7
  | Cert_validation -> 8
  | Chan_bad_length -> 9
  | Chan_cacheline -> 10
  | Chan_doorbell -> 11
  | Chan_drop -> 12
  | Chan_empty_block -> 13
  | Chan_full_block -> 14
  | Chan_recv -> 15
  | Chan_send -> 16
  | Component_load -> 17
  | Component_mem_access -> 18
  | Context_switch -> 19
  | Cpu_sync -> 20
  | Cross_domain_call -> 21
  | Delegation -> 22
  | Inline_specialization -> 23
  | Inlined_invocation -> 24
  | Interrupt -> 25
  | Ipi -> 26
  | Method_invocation -> 27
  | Mpsc_cas_retry -> 28
  | Mpsc_doorbell -> 29
  | Mpsc_reserve -> 30
  | Ns_bind -> 31
  | Online_certification -> 32
  | Page_fault -> 33
  | Pager_fault -> 34
  | Popup_promotion -> 35
  | Proto_thread -> 36
  | Proxy_fault -> 37
  | Sfi_check -> 38
  | Sfi_crossing -> 39
  | Spurious_interrupt -> 40
  | Steal -> 41
  | Thread_crash -> 42
  | Thread_create -> 43
  | Thread_switch -> 44
  | Tlb_fill -> 45
  | Trap -> 46
  | Vm_fault -> 47
  | Vm_wild_access -> 48

let name = function
  | Blk_complete -> "blk_complete"
  | Blk_error -> "blk_error"
  | Blk_issue -> "blk_issue"
  | Blk_wait -> "blk_wait"
  | Bytecode_rejection -> "bytecode_rejection"
  | Bytecode_verification -> "bytecode_verification"
  | Cache_flush -> "cache_flush"
  | Cert_rejection -> "cert_rejection"
  | Cert_validation -> "cert_validation"
  | Chan_bad_length -> "chan_bad_length"
  | Chan_cacheline -> "chan_cacheline"
  | Chan_doorbell -> "chan_doorbell"
  | Chan_drop -> "chan_drop"
  | Chan_empty_block -> "chan_empty_block"
  | Chan_full_block -> "chan_full_block"
  | Chan_recv -> "chan_recv"
  | Chan_send -> "chan_send"
  | Component_load -> "component_load"
  | Component_mem_access -> "component_mem_access"
  | Context_switch -> "context_switch"
  | Cpu_sync -> "cpu_sync"
  | Cross_domain_call -> "cross_domain_call"
  | Delegation -> "delegation"
  | Inline_specialization -> "inline_specialization"
  | Inlined_invocation -> "inlined_invocation"
  | Interrupt -> "interrupt"
  | Ipi -> "ipi"
  | Method_invocation -> "method_invocation"
  | Mpsc_cas_retry -> "mpsc_cas_retry"
  | Mpsc_doorbell -> "mpsc_doorbell"
  | Mpsc_reserve -> "mpsc_reserve"
  | Ns_bind -> "ns_bind"
  | Online_certification -> "online_certification"
  | Page_fault -> "page_fault"
  | Pager_fault -> "pager_fault"
  | Popup_promotion -> "popup_promotion"
  | Proto_thread -> "proto_thread"
  | Proxy_fault -> "proxy_fault"
  | Sfi_check -> "sfi_check"
  | Sfi_crossing -> "sfi_crossing"
  | Spurious_interrupt -> "spurious_interrupt"
  | Steal -> "steal"
  | Thread_crash -> "thread_crash"
  | Thread_create -> "thread_create"
  | Thread_switch -> "thread_switch"
  | Tlb_fill -> "tlb_fill"
  | Trap -> "trap"
  | Vm_fault -> "vm_fault"
  | Vm_wild_access -> "vm_wild_access"

let of_name = function
  | "blk_complete" -> Some Blk_complete
  | "blk_error" -> Some Blk_error
  | "blk_issue" -> Some Blk_issue
  | "blk_wait" -> Some Blk_wait
  | "bytecode_rejection" -> Some Bytecode_rejection
  | "bytecode_verification" -> Some Bytecode_verification
  | "cache_flush" -> Some Cache_flush
  | "cert_rejection" -> Some Cert_rejection
  | "cert_validation" -> Some Cert_validation
  | "chan_bad_length" -> Some Chan_bad_length
  | "chan_cacheline" -> Some Chan_cacheline
  | "chan_doorbell" -> Some Chan_doorbell
  | "chan_drop" -> Some Chan_drop
  | "chan_empty_block" -> Some Chan_empty_block
  | "chan_full_block" -> Some Chan_full_block
  | "chan_recv" -> Some Chan_recv
  | "chan_send" -> Some Chan_send
  | "component_load" -> Some Component_load
  | "component_mem_access" -> Some Component_mem_access
  | "context_switch" -> Some Context_switch
  | "cpu_sync" -> Some Cpu_sync
  | "cross_domain_call" -> Some Cross_domain_call
  | "delegation" -> Some Delegation
  | "inline_specialization" -> Some Inline_specialization
  | "inlined_invocation" -> Some Inlined_invocation
  | "interrupt" -> Some Interrupt
  | "ipi" -> Some Ipi
  | "method_invocation" -> Some Method_invocation
  | "mpsc_cas_retry" -> Some Mpsc_cas_retry
  | "mpsc_doorbell" -> Some Mpsc_doorbell
  | "mpsc_reserve" -> Some Mpsc_reserve
  | "ns_bind" -> Some Ns_bind
  | "online_certification" -> Some Online_certification
  | "page_fault" -> Some Page_fault
  | "pager_fault" -> Some Pager_fault
  | "popup_promotion" -> Some Popup_promotion
  | "proto_thread" -> Some Proto_thread
  | "proxy_fault" -> Some Proxy_fault
  | "sfi_check" -> Some Sfi_check
  | "sfi_crossing" -> Some Sfi_crossing
  | "spurious_interrupt" -> Some Spurious_interrupt
  | "steal" -> Some Steal
  | "thread_crash" -> Some Thread_crash
  | "thread_create" -> Some Thread_create
  | "thread_switch" -> Some Thread_switch
  | "tlb_fill" -> Some Tlb_fill
  | "trap" -> Some Trap
  | "vm_fault" -> Some Vm_fault
  | "vm_wild_access" -> Some Vm_wild_access
  | _ -> None

let events =
  [
    Blk_complete; Blk_error; Blk_issue; Blk_wait; Bytecode_rejection;
    Bytecode_verification; Cache_flush; Cert_rejection; Cert_validation;
    Chan_bad_length; Chan_cacheline; Chan_doorbell; Chan_drop;
    Chan_empty_block; Chan_full_block; Chan_recv; Chan_send; Component_load;
    Component_mem_access; Context_switch; Cpu_sync; Cross_domain_call;
    Delegation; Inline_specialization; Inlined_invocation; Interrupt; Ipi;
    Method_invocation; Mpsc_cas_retry; Mpsc_doorbell; Mpsc_reserve; Ns_bind;
    Online_certification; Page_fault; Pager_fault; Popup_promotion;
    Proto_thread; Proxy_fault; Sfi_check; Sfi_crossing; Spurious_interrupt;
    Steal; Thread_crash; Thread_create; Thread_switch; Tlb_fill; Trap;
    Vm_fault; Vm_wild_access;
  ]

let n_events = List.length events

type t = {
  mutable cycles : int;
  slots : int array; (* one per event, at [slot ev] *)
  listed : bool array; (* bumped by n <= 0 at some point: listed even at 0 *)
  others : (string, int ref) Hashtbl.t; (* names outside [event] *)
  obs : Pm_obs.Obs.t;
}

let create ?obs () =
  let obs = match obs with Some o -> o | None -> Pm_obs.Obs.create () in
  {
    cycles = 0;
    slots = Array.make n_events 0;
    listed = Array.make n_events false;
    others = Hashtbl.create 8;
    obs;
  }

let advance t n =
  assert (n >= 0);
  t.cycles <- t.cycles + n

(* Reconciliation: pull this clock forward to a point in global virtual
   time (never backward). Returns the idle cycles absorbed, so callers
   can count them. *)
let advance_to t n =
  if n > t.cycles then begin
    let d = n - t.cycles in
    t.cycles <- n;
    d
  end
  else 0

let now t = t.cycles

let obs t = t.obs

let bump t ev =
  let i = slot ev in
  t.slots.(i) <- t.slots.(i) + 1

(* A counter is listed once bumped, even by 0. Bumps by n > 0 alone
   leave it nonzero, so only a bump by n <= 0 has to mark it. *)
let bump_n t ev n =
  let i = slot ev in
  if n <= 0 then t.listed.(i) <- true;
  t.slots.(i) <- t.slots.(i) + n

let read t ev = t.slots.(slot ev)

(* The string shim: a name of an [event] goes to its slot, any other to
   the clock's own table. *)
let count_n t name n =
  match of_name name with
  | Some ev -> bump_n t ev n
  | None -> (
    match Hashtbl.find_opt t.others name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.others name (ref n))

let count t name = count_n t name 1

let counter t name =
  match of_name name with
  | Some ev -> read t ev
  | None -> ( match Hashtbl.find_opt t.others name with Some r -> !r | None -> 0)

let counters t =
  let listed =
    List.filter_map
      (fun ev ->
        let i = slot ev in
        if t.slots.(i) <> 0 || t.listed.(i) then Some (name ev, t.slots.(i)) else None)
      events
  in
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.others listed
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  t.cycles <- 0;
  Array.fill t.slots 0 n_events 0;
  Array.fill t.listed 0 n_events false;
  Hashtbl.reset t.others

let measure t f =
  let before = now t in
  let result = f () in
  (result, now t - before)

module Journal = Pm_journal.Journal

(* The one span recorder. With the observability flag on, [f] runs
   between Span_enter/Span_exit journal events; one simulated store
   books the completed span and its inclusive cycles become one sample
   of [metric] in the span's domain. An exception still records the exit
   (without the booking store or the sample) and is re-raised; the exit
   always carries the enter's rid, whatever ambient request [f] left
   behind. *)
let span t ~costs ~domain ~layer ~obj ~iface ~meth ?metric f =
  if not (Pm_obs.Obs.enabled t.obs) then f ()
  else begin
    let j = Pm_obs.Obs.journal t.obs in
    let detail = String.concat "" [ layer; " "; iface; "."; meth; " "; obj ] in
    let rid = Pm_journal.Trace.current () and t0 = t.cycles in
    let jot kind = Journal.record j ~rid ~kind ~domain ~at:t.cycles ~info:0 ~detail in
    jot Journal.Span_enter;
    match f () with
    | r ->
      advance t (Cost.span_store costs);
      jot Journal.Span_exit;
      (match metric with
      | Some name -> Pm_obs.Obs.observe t.obs ~domain name (t.cycles - t0)
      | None -> ());
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      jot Journal.Span_exit;
      Printexc.raise_with_backtrace e bt
  end

type snapshot = { at : int; counts : (string * int) list }

let snapshot t = { at = t.cycles; counts = counters t }

let diff ~before ~after =
  let find name l = Option.value ~default:0 (List.assoc_opt name l) in
  let names =
    List.sort_uniq String.compare
      (List.map fst before.counts @ List.map fst after.counts)
  in
  {
    at = after.at - before.at;
    counts =
      List.filter_map
        (fun name ->
          match find name after.counts - find name before.counts with
          | 0 -> None
          | d -> Some (name, d))
        names;
  }

let since t before = diff ~before ~after:(snapshot t)

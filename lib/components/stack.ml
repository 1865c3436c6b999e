module Api = Pm_nucleus.Api
module Domain = Pm_nucleus.Domain
module Iface = Pm_obj.Iface
module Instance = Pm_obj.Instance
module Composite = Pm_obj.Composite
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Invoke = Pm_obj.Invoke
module Call_ctx = Pm_obj.Call_ctx
module Path = Pm_names.Path

let proto_transport = 17
let default_ttl = 16
let broadcast = 0xffff
let layer_names = [ "framer"; "net"; "transport" ]

let fault msg = Error (Oerror.Fault msg)

(* ------------------------------------------------------------------ *)
(* Layer objects: each exports interface "layer" with encode/decode.    *)
(* ------------------------------------------------------------------ *)

(* A packet passes between layers as a view of the one frame buffer it
   lives in, ((off, len), frame): each layer writes or checks its header
   where it lies and hands the next layer the view of the packet it
   carries. No layer copies a payload. *)
let view_type = Vtype.Tpair (Vtype.Tpair (Vtype.Tint, Vtype.Tint), Vtype.Tblob)

let view frame ~off ~len =
  Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame)

(* a decoded header pair and the view of the packet it carries *)
let header_view = Vtype.Tpair (Vtype.Tpair (Vtype.Tint, Vtype.Tint), view_type)

let pair a b payload = Value.Pair (Value.Pair (Value.Int a, Value.Int b), payload)
let shape meth = Error (Oerror.Type_error ("layer." ^ meth ^ ": bad arguments"))

let layer_object api dom ~class_name ~encode ~decode =
  Instance.create api.Api.registry ~class_name ~domain:dom.Domain.id
    [ Iface.make ~name:"layer" [ encode; decode ] ]

let framer_layer api dom =
  layer_object api dom ~class_name:"stack.framer"
    ~encode:
      (* the buffer is the frame: the packet must fill it but for this
         layer's header in front and trailer behind *)
      (Iface.meth ~name:"encode" ~args:[ Vtype.Tint; Vtype.Tint; view_type ]
         ~ret:Vtype.Tblob (fun ctx -> function
         | [ Value.Int dst; Value.Int src;
             Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame) ] ->
           if
             off <> Wire.Frame.header_len || len < 0
             || off + len + Wire.Frame.trailer_len <> Bytes.length frame
           then fault "frame: packet does not fill its buffer"
           else begin
             Wire.Frame.write ctx frame ~off:0 ~dst ~src ~len;
             Ok (Value.Blob frame)
           end
         | _ -> shape "encode"))
    ~decode:
      (Iface.fn1 ~name:"decode" Iface.Blob ~ret:header_view (fun ctx raw ->
           match Wire.Frame.parse ctx raw ~off:0 ~len:(Bytes.length raw) with
           | Ok { Wire.Frame.dst; src; off; len } -> Ok (pair dst src (view raw ~off ~len))
           | Error e -> fault e))

let net_layer api dom =
  layer_object api dom ~class_name:"stack.net"
    ~encode:
      (Iface.meth ~name:"encode" ~args:[ Vtype.Tint; Vtype.Tint; Vtype.Tint; view_type ]
         ~ret:view_type (fun ctx -> function
         | [ Value.Int src; Value.Int dst; Value.Int proto;
             Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame) ] ->
           let hoff = off - Wire.Net.header_len in
           if hoff < 0 || not (Wire.in_bounds frame ~off ~len) then
             fault "net: no headroom for the header"
           else begin
             Wire.Net.write ctx frame ~off:hoff ~src ~dst ~ttl:default_ttl ~proto ~len;
             Ok (view frame ~off:hoff ~len:(Wire.Net.header_len + len))
           end
         | _ -> shape "encode"))
    ~decode:
      (Iface.meth ~name:"decode" ~args:[ view_type ]
         ~ret:
           (Vtype.Tpair
              (Vtype.Tpair (Vtype.Tint, Vtype.Tint), Vtype.Tpair (Vtype.Tint, view_type)))
         (fun ctx -> function
         | [ Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame) ]
           -> (
           match Wire.Net.parse ctx frame ~off ~len with
           | Ok { Wire.Net.src; dst; ttl = _; proto; off; len } ->
             Ok (pair src dst (Value.Pair (Value.Int proto, view frame ~off ~len)))
           | Error e -> fault e)
         | _ -> shape "decode"))

(* The transport allocates the frame, with room in front for every
   header and behind for the trailer, and copies the payload's view in:
   the send's one payload copy. *)
let transport_layer api dom =
  layer_object api dom ~class_name:"stack.transport"
    ~encode:
      (Iface.meth ~name:"encode" ~args:[ Vtype.Tint; Vtype.Tint; view_type ]
         ~ret:view_type (fun ctx -> function
         | [ Value.Int sport; Value.Int dport;
             Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob src) ] ->
           if not (Wire.in_bounds src ~off ~len) then
             fault "transport: payload outside its buffer"
           else begin
             let frame =
               Wire.packet ctx ~headroom:Wire.headroom ~tailroom:Wire.tailroom src ~off
                 ~len
             in
             let off = Wire.headroom - Wire.Transport.header_len in
             Wire.Transport.write ctx frame ~off ~sport ~dport ~len;
             Ok (view frame ~off ~len:(Wire.Transport.header_len + len))
           end
         | _ -> shape "encode"))
    ~decode:
      (Iface.meth ~name:"decode" ~args:[ view_type ] ~ret:header_view (fun ctx -> function
         | [ Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame) ]
           -> (
           match Wire.Transport.parse ctx frame ~off ~len with
           | Ok { Wire.Transport.sport; dport; off; len } ->
             Ok (pair sport dport (view frame ~off ~len))
           | Error e -> fault e)
         | _ -> shape "decode"))

(* ------------------------------------------------------------------ *)
(* Controller                                                           *)
(* ------------------------------------------------------------------ *)

(* One bound port's demux entry. [sink], when set, routes decoded
   payloads to the sink's "netsink".deliver instead of the mailbox —
   how a channel-backed receive path (Pm_net) hooks each bound port. *)
type conn = {
  mailbox : Value.t Queue.t;
  mutable sink : Instance.t option;
}

type state = {
  api : Api.t;
  dom : Domain.t;
  addr : int;
  driver_path : Path.t;
  mutable driver : Instance.t option;
  comp : Composite.t option ref; (* set right after the composite exists *)
  (* the connection table: one O(1) probe per packet resolves both the
     binding and its delivery route *)
  conns : (int, conn) Hashtbl.t;
  mutable rx_ok : int;
  mutable rx_dropped : int;
  mutable tx : int;
  (* downloaded packet filter: runs over every raw received frame *)
  mutable filter : Pm_vm.Vm.program option;
  mutable filter_sandboxed : bool;
  (* when the attach-time verifier proved the filter, the affine fuel
     bound from its proof: runs are metered against fuel_for(frame
     length) instead of the VM's blanket default *)
  mutable filter_fuel : Pm_check.Verify.fuel_bound option;
  mutable rx_filtered : int;
}

let layer st name =
  match !(st.comp) with
  | None -> Error (Oerror.Fault "stack: composition not assembled")
  | Some comp ->
    (match Composite.child comp name with
    | Some inst -> Ok inst
    | None -> Error (Oerror.Fault ("stack: missing layer " ^ name)))

let driver st =
  match st.driver with
  | Some d when not d.Instance.revoked -> Ok d
  | _ ->
    (match Api.bind st.api st.dom st.driver_path with
    | Ok d ->
      st.driver <- Some d;
      Ok d
    | Error e ->
      Error (Oerror.Fault (Pm_nucleus.Directory.bind_error_to_string e)))

let ( let* ) = Result.bind

let drop st reason =
  st.rx_dropped <- st.rx_dropped + 1;
  Logs.debug (fun m -> m "stack: dropped packet (%s)" reason);
  Ok Value.Unit

(* Run the downloaded filter over a raw frame; [true] = keep. A raw
   (certified) filter runs on the frame in place; a sandboxed one runs on
   a copy padded to a power of two so address masking is sound. *)
let filter_accepts st ctx raw =
  match st.filter with
  | None -> true
  | Some program ->
    let mem =
      if st.filter_sandboxed then begin
        (* the window must match the size the rewrite masked for *)
        let padded =
          Bytes.make (Pm_vm.Sfi_rewrite.padded_size Pm_machine.Nic.mtu) '\000'
        in
        Bytes.blit raw 0 padded 0 (Bytes.length raw);
        Pm_vm.Vm.mem_of_bytes padded
      end
      else Pm_vm.Vm.mem_of_bytes raw
    in
    let outcome =
      match st.filter_fuel with
      | Some fb ->
        Pm_vm.Vm.run ctx ~mem
          ~fuel:(Pm_check.Verify.fuel_for fb ~len:mem.Pm_vm.Vm.size)
          program
      | None -> Pm_vm.Vm.run ctx ~mem program
    in
    (match outcome with
    | Pm_vm.Vm.Returned 0 ->
      st.rx_filtered <- st.rx_filtered + 1;
      false
    | Pm_vm.Vm.Returned _ -> true
    | Pm_vm.Vm.Wild_access _ ->
      (* a raw filter just escaped its window: this is the kernel-safety
         event certification is supposed to preclude *)
      Logs.warn (fun m -> m "stack: packet filter issued a wild access");
      st.rx_filtered <- st.rx_filtered + 1;
      false
    | Pm_vm.Vm.Vm_fault msg ->
      Logs.warn (fun m -> m "stack: packet filter fault: %s" msg);
      st.rx_filtered <- st.rx_filtered + 1;
      false)

(* Receive path: filter -> framer -> net -> transport -> mailbox. *)
let rec rx st ctx raw =
  if not (filter_accepts st ctx raw) then Ok Value.Unit
  else rx_unfiltered st ctx raw

and rx_unfiltered st ctx raw =
  let call inst meth args = Invoke.call ctx inst ~iface:"layer" ~meth args in
  let* framer = layer st "framer" in
  match call framer "decode" [ Value.Blob raw ] with
  | Error (Oerror.Fault e) -> drop st e
  | Error e -> Error e
  | Ok (Value.Pair (Value.Pair (Value.Int fdst, Value.Int _fsrc), np)) ->
    if fdst <> st.addr && fdst <> broadcast then drop st "frame not for us"
    else begin
      let* netl = layer st "net" in
      match call netl "decode" [ np ] with
      | Error (Oerror.Fault e) -> drop st e
      | Error e -> Error e
      | Ok
          (Value.Pair
            (Value.Pair (Value.Int nsrc, Value.Int ndst), Value.Pair (Value.Int proto, tp)))
        ->
        if ndst <> st.addr && ndst <> broadcast then drop st "net not for us"
        else if proto <> proto_transport then drop st "unknown protocol"
        else begin
          let* transport = layer st "transport" in
          match call transport "decode" [ tp ] with
          | Error (Oerror.Fault e) -> drop st e
          | Error e -> Error e
          | Ok
              (Value.Pair
                ( Value.Pair (Value.Int sport, Value.Int dport),
                  (Value.Pair (Value.Pair (Value.Int off, Value.Int len), Value.Blob frame)
                   as payload) )) ->
            (* causal tracing: the demux decision is a point on the
               current request's path (rid is ambient from the traced
               wire parse upstream); plain store, zero cycles, no event
               when tracing is off *)
            if Pm_journal.Trace.enabled () then begin
              let clock = Pm_machine.Machine.clock st.api.Api.machine in
              Pm_journal.Journal.record
                (Pm_obs.Obs.journal (Pm_machine.Clock.obs clock))
                ~kind:Pm_journal.Journal.Trace_note ~domain:st.dom.Domain.id
                ~at:(Pm_machine.Clock.now clock) ~info:dport ~detail:"demux"
            end;
            (* the payload is copied once, into what the application
               reads: the sink's ring message or the mailbox entry *)
            (match Hashtbl.find_opt st.conns dport with
            | None -> drop st (Printf.sprintf "port %d not bound" dport)
            | Some _ when not (Wire.in_bounds frame ~off ~len) ->
              drop st "transport: payload outside the frame"
            | Some { sink = Some sink; _ } ->
              (match
                 Invoke.call ctx sink ~iface:"netsink" ~meth:"deliver"
                   [ Value.Int nsrc; Value.Int sport; payload ]
               with
              | Ok _ ->
                st.rx_ok <- st.rx_ok + 1;
                Ok Value.Unit
              | Error (Oerror.Fault e) -> drop st e
              | Error e -> Error e)
            | Some conn ->
              let copy = Bytes.sub frame off len in
              Call_ctx.access ctx len;
              Queue.push (pair nsrc sport (Value.Blob copy)) conn.mailbox;
              st.rx_ok <- st.rx_ok + 1;
              Ok Value.Unit)
          | Ok _ -> fault "stack: transport decode shape"
        end
      | Ok _ -> fault "stack: net decode shape"
    end
  | Ok _ -> fault "stack: frame decode shape"

(* Transmit path: transport -> net -> framer -> driver. [payload] is a
   view, handed to the transport as it came. *)
let send st ctx ~dst ~sport ~dport payload =
  let call inst meth args = Invoke.call ctx inst ~iface:"layer" ~meth args in
  let* transport = layer st "transport" in
  let* tp = call transport "encode" [ Value.Int sport; Value.Int dport; payload ] in
  let* netl = layer st "net" in
  let* np =
    call netl "encode"
      [ Value.Int st.addr; Value.Int dst; Value.Int proto_transport; tp ]
  in
  let* framer = layer st "framer" in
  let* frame = call framer "encode" [ Value.Int dst; Value.Int st.addr; np ] in
  let* drv = driver st in
  let* _ = Invoke.call ctx drv ~iface:"netdev" ~meth:"send" [ frame ] in
  st.tx <- st.tx + 1;
  Ok Value.Unit

let controller api dom st =
  let with_conn port k =
    match Hashtbl.find_opt st.conns port with
    | None -> fault "port not bound"
    | Some conn -> k conn
  in
  let set_filter code sandboxed =
    match Pm_vm.Vm.decode (Bytes.to_string code) with
    | Error e -> fault ("stack: bad filter object code: " ^ e)
    | Ok program ->
      let program =
        if sandboxed then
          (* rewrite once for the padded-MTU window every sandboxed run
             will use *)
          Pm_vm.Sfi_rewrite.rewrite program
            ~window_size:(Pm_vm.Sfi_rewrite.padded_size Pm_machine.Nic.mtu)
        else Ok program
      in
      (match program with
      | Error e -> fault ("stack: sfi rewrite failed: " ^ e)
      | Ok program ->
        st.filter <- Some program;
        st.filter_sandboxed <- sandboxed;
        (* attach-time static proof (pure, no clock cost): a raw filter
           the verifier can bound is metered against its own proven
           fuel; anything else keeps the blanket VM default *)
        st.filter_fuel <-
          (if sandboxed then None
           else
             match Pm_check.Verify.verify program with
             | Pm_check.Verify.Verified { fuel; _ } -> Some fuel
             | Pm_check.Verify.Rejected _ -> None);
        Ok Value.Unit)
  in
  let iface =
    Iface.make ~name:"stack"
      [
        Iface.fn1 ~name:"rx" Iface.Blob ~ret:Vtype.Tunit (fun ctx raw -> rx st ctx raw);
        (* a burst of raw frames in one invocation: what a channel-backed
           receive path hands over per doorbell, amortising the crossing *)
        Iface.fn1 ~name:"rx_batch" (Iface.List Vtype.Tblob) ~ret:Vtype.Tint
          (fun ctx frames ->
            let ok =
              List.fold_left
                (fun acc v ->
                  match v with
                  | Value.Blob raw -> (
                    match rx st ctx raw with Ok _ -> acc + 1 | Error _ -> acc)
                  | _ -> acc)
                0 frames
            in
            Ok (Value.Int ok));
        Iface.meth ~name:"send"
          ~args:[ Vtype.Tint; Vtype.Tint; Vtype.Tint; view_type ]
          ~ret:Vtype.Tunit (fun ctx -> function
          | [ Value.Int dst; Value.Int sport; Value.Int dport; payload ] ->
            send st ctx ~dst ~sport ~dport payload
          | _ -> Error (Oerror.Type_error "stack.send: bad arguments"));
        Iface.fn1 ~name:"bind_port" Iface.Int ~ret:Vtype.Tunit (fun _ port ->
            if Hashtbl.mem st.conns port then fault "port already bound"
            else begin
              Hashtbl.replace st.conns port { mailbox = Queue.create (); sink = None };
              Ok Value.Unit
            end);
        Iface.fn1 ~name:"unbind_port" Iface.Int ~ret:Vtype.Tunit (fun _ port ->
            Hashtbl.remove st.conns port;
            Ok Value.Unit);
        Iface.fn1 ~name:"recv" Iface.Int ~ret:(Vtype.Tlist Vtype.Tany) (fun _ port ->
            with_conn port (fun conn ->
                let items = List.of_seq (Queue.to_seq conn.mailbox) in
                Queue.clear conn.mailbox;
                Ok (Value.List items)));
        Iface.fn1 ~name:"pending" Iface.Int ~ret:Vtype.Tint (fun _ port ->
            with_conn port (fun conn -> Ok (Value.Int (Queue.length conn.mailbox))));
        Iface.fn0 ~name:"stats" ~ret:(Vtype.Tlist Vtype.Tint) (fun _ ->
            Ok
              (Value.List
                 [ Value.Int st.rx_ok; Value.Int st.rx_dropped; Value.Int st.tx;
                   Value.Int st.rx_filtered ]));
        Iface.fn2 ~name:"set_filter" Iface.Blob Iface.Bool ~ret:Vtype.Tunit
          (fun _ code sandboxed -> set_filter code sandboxed);
        Iface.fn0 ~name:"clear_filter" ~ret:Vtype.Tunit (fun _ ->
            st.filter <- None;
            st.filter_fuel <- None;
            Ok Value.Unit);
        Iface.fn0 ~name:"address" ~ret:Vtype.Tint (fun _ -> Ok (Value.Int st.addr));
        (* route a bound port's deliveries to a sink object instead of
           the mailbox: the hook Pm_net uses to feed each port's receive
           ring *)
        Iface.fn2 ~name:"attach_port" Iface.Int Iface.Handle ~ret:Vtype.Tunit
          (fun _ port h ->
            with_conn port (fun conn ->
                match Pm_nucleus.Directory.resolve_handle st.api.Api.directory h with
                | None -> fault "attach_port: dead sink handle"
                | Some sink ->
                  conn.sink <- Some sink;
                  Ok Value.Unit));
        Iface.fn1 ~name:"detach_port" Iface.Int ~ret:Vtype.Tunit (fun _ port ->
            (match Hashtbl.find_opt st.conns port with
            | Some conn -> conn.sink <- None
            | None -> ());
            Ok Value.Unit);
      ]
  in
  Instance.create api.Api.registry ~class_name:"stack.controller" ~domain:dom.Domain.id
    [ iface ]

let create api dom ~addr ~driver_path =
  if addr < 0 || addr >= broadcast then invalid_arg "Stack.create: bad address";
  let comp_ref = ref None in
  let st =
    {
      api;
      dom;
      addr;
      driver_path = Path.of_string driver_path;
      driver = None;
      comp = comp_ref;
      conns = Hashtbl.create 64;
      rx_ok = 0;
      rx_dropped = 0;
      tx = 0;
      filter = None;
      filter_sandboxed = false;
      filter_fuel = None;
      rx_filtered = 0;
    }
  in
  let comp =
    Composite.make api.Api.registry ~class_name:"toolbox.protostack"
      ~domain:dom.Domain.id ~mode:Composite.Dynamic
      ~children:
        [
          ("framer", framer_layer api dom);
          ("net", net_layer api dom);
          ("transport", transport_layer api dom);
          ("control", controller api dom st);
        ]
      ~exports:[ { Composite.as_name = "stack"; child = "control"; iface = "stack" } ]
  in
  comp_ref := Some comp;
  comp

let replace_layer comp name inst =
  if not (List.mem name layer_names) then
    invalid_arg (Printf.sprintf "Stack.replace_layer: %S is not a layer" name);
  Composite.replace_child comp name inst

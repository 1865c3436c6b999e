(* A file server from toolbox parts.

   Composition in practice: the inode filesystem (over the simulated
   disk) is served through the RPC component over the protocol stack and
   the loopback NIC. Nothing here is new code — it is the toolbox
   assembled into an application-specific service, which is the point of
   the architecture.

   Run with: dune exec examples/fileserver.exe *)

open Paramecium

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* request payloads: "verb path [data]" in plain bytes *)
let split2 b =
  let s = Bytes.to_string b in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let () =
  let sys = System.create ~seed:17 () in
  let k = System.kernel sys in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  ignore
    (System.setup_networking sys ~placement:System.Certified ~addr:42 ~loopback:true ());

  (* the filesystem, formatted on the kernel's disk *)
  let fs = Simplefs.format api ~disk:(Kernel.disk k) in

  let lift = function
    | Ok v -> Ok v
    | Error e -> Error (Simplefs.error_to_string e)
  in
  let procedures =
    [
      ("put", fun ctx b ->
          let path, data = split2 b in
          Result.bind (lift (Simplefs.create fs ctx path)) (fun () ->
              Result.map
                (fun n -> Bytes.of_string (string_of_int n))
                (lift (Simplefs.write fs ctx path ~offset:0 (Bytes.of_string data)))));
      ("get", fun ctx b ->
          let path, _ = split2 b in
          Result.map Fun.id (lift (Simplefs.read fs ctx path ~offset:0 ~len:65536)));
      ("ls", fun ctx b ->
          let path, _ = split2 b in
          Result.map
            (fun names -> Bytes.of_string (String.concat "\n" names))
            (lift (Simplefs.list fs ctx path)));
      ("rm", fun ctx b ->
          let path, _ = split2 b in
          Result.map (fun () -> Bytes.empty) (lift (Simplefs.remove fs ctx path)));
    ]
  in
  let server =
    Rpc.create_server api kdom ~stack_path:"/services/stack" ~port:2049 ~procedures
  in
  let client =
    Rpc.create_client api kdom ~stack_path:"/services/stack" ~port:1024
      ~server:(42, 2049) ()
  in
  let ctx = Kernel.ctx k kdom in
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"nfsd" ~domain:kdom.Domain.id (fun () ->
         for _ = 1 to 3_000 do
           ignore (Invoke.call_exn ctx server ~iface:"rpc.server" ~meth:"poll" []);
           Scheduler.yield ()
         done));

  let log = ref [] in
  ignore
    (Scheduler.spawn (Kernel.sched k) ~name:"client" ~domain:kdom.Domain.id (fun () ->
         let call verb arg =
           match
             Invoke.call ctx client ~iface:"rpc" ~meth:"call"
               [ Value.Str verb; Value.Blob (Bytes.of_string arg) ]
           with
           | Ok (Value.Blob b) -> Printf.sprintf "%s %s -> %S" verb arg (Bytes.to_string b)
           | Ok v -> Printf.sprintf "%s %s -> %s" verb arg (Value.to_string v)
           | Error e -> Printf.sprintf "%s %s -> error: %s" verb arg (Oerror.to_string e)
         in
         log := call "put" "/motd welcome to paramecium" :: !log;
         log := call "put" "/readme the toolbox approach" :: !log;
         log := call "ls" "/" :: !log;
         log := call "get" "/motd" :: !log;
         log := call "rm" "/readme" :: !log;
         log := call "ls" "/" :: !log;
         log := call "get" "/readme" :: !log));
  Kernel.step k ~ticks:800 ();
  List.iter (say "  %s") (List.rev !log);
  assert (List.length !log = 7);

  (* the data is really on the disk: a fresh mount sees it *)
  let fs2 = Simplefs.mount api ~disk:(Kernel.disk k) in
  (match Simplefs.read fs2 ctx "/motd" ~offset:0 ~len:100 with
  | Ok b -> say "after remount, /motd = %S" (Bytes.to_string b)
  | Error e -> failwith (Simplefs.error_to_string e));
  say "fileserver done (disk: %d reads, %d writes)"
    (Blkdev.reads (Kernel.disk k))
    (Blkdev.writes (Kernel.disk k))

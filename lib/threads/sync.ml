module Waitq = struct
  type t = Scheduler.resumer Queue.t

  let create () : t = Queue.create ()

  let wait q = Scheduler.suspend (fun r -> Queue.push r q)

  let signal q =
    match Queue.take_opt q with
    | Some r ->
      r.Scheduler.resume ();
      true
    | None -> false

  let broadcast q =
    let n = ref 0 in
    let rec drain () =
      if signal q then begin
        incr n;
        drain ()
      end
    in
    drain ();
    !n

  let length = Queue.length

  (* introspection for the composition linter: who is parked here *)
  let waiters (q : t) =
    Queue.fold (fun acc r -> r.Scheduler.thread :: acc) [] q |> List.rev
end

module Semaphore = struct
  type t = { mutable count : int; waiters : Waitq.t }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create: negative count";
    { count = n; waiters = Waitq.create () }

  let acquire s =
    if s.count > 0 then s.count <- s.count - 1 else Waitq.wait s.waiters

  let try_acquire s =
    if s.count > 0 then begin
      s.count <- s.count - 1;
      true
    end
    else false

  (* release hands the unit straight to a waiter when one exists *)
  let release s = if not (Waitq.signal s.waiters) then s.count <- s.count + 1

  let value s = s.count
end

module Ivar = struct
  type 'a t = { mutable contents : 'a option; waiters : Waitq.t }

  let create () = { contents = None; waiters = Waitq.create () }

  let fill iv v =
    match iv.contents with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
      iv.contents <- Some v;
      ignore (Waitq.broadcast iv.waiters)

  let rec read iv =
    match iv.contents with
    | Some v -> v
    | None ->
      Waitq.wait iv.waiters;
      read iv

  let peek iv = iv.contents
end

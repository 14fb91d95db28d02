(* A persistent team of domains that runs one [map] round at a time.

   The caller's domain acts as member 0 of every round; [size - 1]
   domains are spawned at [create], park on a condition variable between
   rounds and are joined at [shutdown].  Every field below is guarded by
   [m]: the lock taken to open a round publishes the caller's state to
   the workers, and the lock each worker takes to report completion
   publishes its writes back. *)

type t = {
  size : int;
  m : Mutex.t;
  start : Condition.t;  (* workers park here between rounds *)
  finished : Condition.t;  (* the caller parks here for the barrier *)
  mutable job : unit -> unit;
  mutable active : int;  (* members participating in the current round *)
  mutable round : int;
  mutable remaining : int;  (* active workers yet to finish the round *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let hardware_parallelism () = Domain.recommended_domain_count ()

let no_job () = ()

let worker t i () =
  let rec loop last_round =
    Mutex.lock t.m;
    while (not t.stop) && t.round = last_round do
      Condition.wait t.start t.m
    done;
    let stop = t.stop and round = t.round in
    let job = if i < t.active then Some t.job else None in
    Mutex.unlock t.m;
    if not stop then begin
      Option.iter
        (fun job ->
          job ();
          Mutex.lock t.m;
          t.remaining <- t.remaining - 1;
          if t.remaining = 0 then Condition.signal t.finished;
          Mutex.unlock t.m)
        job;
      loop round
    end
  in
  loop 0

let create ~size =
  if size < 1 then invalid_arg "Barrier_team.create: size must be >= 1";
  let t =
    {
      size;
      m = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = no_job;
      active = 0;
      round = 0;
      remaining = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (size - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

(* Run [job] on members [0 .. active-1] and return once all finished.
   [job] never raises: [map] catches every application's exception. *)
let run_round t ~active job =
  if active <= 1 then job ()
  else begin
    Mutex.lock t.m;
    t.job <- job;
    t.active <- active;
    t.remaining <- active - 1;
    t.round <- t.round + 1;
    Condition.broadcast t.start;
    Mutex.unlock t.m;
    job ();
    Mutex.lock t.m;
    while t.remaining > 0 do
      Condition.wait t.finished t.m
    done;
    t.job <- no_job;
    Mutex.unlock t.m
  end

(* Members claim input indices from a shared counter, so a slow task
   never holds up the others' next claims.  Each result lands in its
   input's slot; the round's barrier publishes the slots back to the
   caller. *)
let map t f xs =
  let inputs = Array.of_list xs in
  let len = Array.length inputs in
  let results = Array.make len None in
  let next = Atomic.make 0 in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < len then begin
      results.(i) <- Some (try Ok (f inputs.(i)) with e -> Error e);
      claim ()
    end
  in
  run_round t ~active:(min t.size len) claim;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
       results)

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.start;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.m;
  List.iter Domain.join domains

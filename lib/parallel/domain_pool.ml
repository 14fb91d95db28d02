type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t list;
  mutable shut : bool;
}

let default_jobs () = Domain.recommended_domain_count ()

(* [worker_loop] runs on the spawned domains; [task] is what [map]
   queues for them, owning the input slot [i] it writes its result to.
   Both take [t.mutex] around every shared write. *)
[@@@lint.domain_scope "worker_loop" "task:i"]

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    match (Queue.take_opt t.queue
           [@lint.single_writer "t.mutex is held across the whole wait loop"])
    with
    | Some job -> Some job
    | None ->
      if t.shut then None
      else begin
        Condition.wait t.nonempty t.mutex;
        next ()
      end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some job ->
    Mutex.unlock t.mutex;
    job ();
    worker_loop t

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let t =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
      shut = false;
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let map t f xs =
  let inputs = Array.of_list xs in
  let len = Array.length inputs in
  let results = Array.make len None in
  let remaining = ref len in
  let finished = Condition.create () in
  let task i () =
    let r = try Ok (f inputs.(i)) with e -> Error e in
    Mutex.lock t.mutex;
    results.(i) <- Some r;
    (decr remaining)
    [@lint.single_writer "guarded by t.mutex, locked on the line above"];
    if !remaining = 0 then Condition.broadcast finished;
    Mutex.unlock t.mutex
  in
  Mutex.lock t.mutex;
  for i = 0 to len - 1 do
    Queue.push (task i) t.queue
  done;
  Condition.broadcast t.nonempty;
  (* The caller is a worker too: drain the queue, then wait for any
     stragglers still running on other domains. *)
  while !remaining > 0 do
    match Queue.take_opt t.queue with
    | Some job ->
      Mutex.unlock t.mutex;
      job ();
      Mutex.lock t.mutex
    | None -> if !remaining > 0 then Condition.wait finished t.mutex
  done;
  Mutex.unlock t.mutex;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
       results)

let shutdown t =
  Mutex.lock t.mutex;
  t.shut <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

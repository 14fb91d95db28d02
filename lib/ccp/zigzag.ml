type verdict = Causal_path | Non_causal_zigzag | Not_a_path

(* Messages sorted by sender, then by ascending send_interval, so that
   relaxing a constraint "send_interval >= gamma" enqueues a suffix of the
   sender's bucket and a per-process pointer (walking from the top down)
   makes each message enqueued at most once per BFS.  The bucket of [pid]
   is [sends.(start.(pid)) .. sends.(start.(pid + 1) - 1)].  [bfs] answers
   any number of sources of one CCP from one sort. *)
let bfs ccp =
  let sends = Ccp.messages ccp in
  Array.stable_sort
    (fun (a : Ccp.message) (b : Ccp.message) ->
      match Int.compare a.src b.src with
      | 0 -> Int.compare a.send_interval b.send_interval
      | c -> c)
    sends;
  let n = Ccp.n ccp in
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun (m : Ccp.message) -> start.(m.src + 1) <- start.(m.src + 1) + 1)
    sends;
  for pid = 1 to n do
    start.(pid) <- start.(pid) + start.(pid - 1)
  done;
  fun (src : Ccp.ckpt) ->
    if not (Ccp.mem ccp src) then invalid_arg "Zigzag.reach: bad checkpoint";
    (* ptr.(pid): highest bucket position not yet enqueued (buckets are
       ascending, the BFS consumes them from the top down) *)
    let ptr = Array.init n (fun pid -> start.(pid + 1) - 1) in
    let min_recv = Array.make n max_int in
    let queue = Queue.create () in
    let relax pid gamma =
      while ptr.(pid) >= start.(pid)
            && sends.(ptr.(pid)).Ccp.send_interval >= gamma do
        Queue.push sends.(ptr.(pid)) queue;
        ptr.(pid) <- ptr.(pid) - 1
      done
    in
    (* condition (i): first message sent after c^alpha, i.e. in interval
       >= alpha + 1 *)
    relax src.pid (src.index + 1);
    while not (Queue.is_empty queue) do
      let (m : Ccp.message) = Queue.pop queue in
      if m.recv_interval < min_recv.(m.dst) then
        min_recv.(m.dst) <- m.recv_interval;
      (* condition (ii): next message sent in the same or later interval *)
      relax m.dst m.recv_interval
    done;
    min_recv

let reach ccp ~src = bfs ccp src

let sweep ccp =
  let reach = bfs ccp in
  Seq.map (fun c -> (c, reach c)) (List.to_seq (Ccp.checkpoints ccp))

let path_exists ccp c1 (c2 : Ccp.ckpt) =
  let r = reach ccp ~src:c1 in
  r.(c2.pid) <= c2.index

let useless ccp =
  List.of_seq
    (Seq.filter_map
       (fun ((c : Ccp.ckpt), r) -> if r.(c.pid) <= c.index then Some c else None)
       (sweep ccp))

let classify_sequence ccp ~(from_ : Ccp.ckpt) ~(to_ : Ccp.ckpt) msg_ids =
  let messages = Ccp.messages ccp in
  let lookup id =
    Array.find_opt (fun (m : Ccp.message) -> m.id = id) messages
  in
  match List.map lookup msg_ids with
  | [] -> Not_a_path
  | maybe_msgs when List.exists Option.is_none maybe_msgs -> Not_a_path
  | maybe_msgs ->
    let msgs =
      List.map
        (function Some m -> m | None -> assert false)
        maybe_msgs
    in
    let first = List.hd msgs in
    let last = List.nth msgs (List.length msgs - 1) in
    let valid_ends =
      first.Ccp.src = from_.pid
      && first.Ccp.send_interval >= from_.index + 1
      && last.Ccp.dst = to_.pid
      && last.Ccp.recv_interval <= to_.index
    in
    let rec check_hops causal = function
      | (m1 : Ccp.message) :: (m2 : Ccp.message) :: rest ->
        if m2.src = m1.dst && m2.send_interval >= m1.recv_interval then
          check_hops (causal && m2.send_seq > m1.recv_seq) (m2 :: rest)
        else None
      | [ _ ] | [] -> Some causal
    in
    if not valid_ends then Not_a_path
    else begin
      match check_hops true msgs with
      | None -> Not_a_path
      | Some true -> Causal_path
      | Some false -> Non_causal_zigzag
    end

module Ccp = Rdt_ccp.Ccp

let check_stable ccp c =
  if not (Ccp.is_stable ccp c) then
    invalid_arg "Oracle: Theorem 1 characterizes stable checkpoints"

let needed_by ccp (c : Ccp.ckpt) =
  check_stable ccp c;
  let successor : Ccp.ckpt = { pid = c.pid; index = c.index + 1 } in
  let witness f =
    let last_f = Ccp.last_stable_ckpt ccp f in
    Ccp.precedes ccp last_f successor && not (Ccp.precedes ccp last_f c)
  in
  List.filter witness (List.init (Ccp.n ccp) Fun.id)

(* [s^last_f] precedes [c^(gamma+1)_pid] but not [s^gamma_pid] exactly
   when [gamma + 1] is the first index of [pid] that [s^last_f]
   precedes. *)
let witness ccp ~pid ~f =
  Ccp.first_preceded ccp (Ccp.last_stable_ckpt ccp f) ~pid - 1

let retained ccp ~pid =
  let last = Ccp.last_stable ccp pid in
  List.init (Ccp.n ccp) (fun f -> witness ccp ~pid ~f)
  |> List.filter (fun gamma -> gamma >= 0 && gamma <= last)
  |> List.sort_uniq Int.compare

let retained_count ccp ~pid = List.length (retained ccp ~pid)

let is_obsolete ccp (c : Ccp.ckpt) =
  check_stable ccp c;
  not (List.mem c.index (retained ccp ~pid:c.pid))

let obsolete ccp =
  List.concat_map
    (fun pid ->
      let kept = retained ccp ~pid in
      List.init (Ccp.last_stable ccp pid + 1) Fun.id
      |> List.filter (fun index -> not (List.mem index kept))
      |> List.map (fun index -> { Ccp.pid; index }))
    (List.init (Ccp.n ccp) Fun.id)

module Ccp = Rdt_ccp.Ccp
module Consistency = Rdt_ccp.Consistency
module Global_gc = Rdt_gc.Global_gc
module Stable_store = Rdt_storage.Stable_store

let check_faulty ~n faulty =
  if List.is_empty faulty then invalid_arg "Recovery_line: empty faulty set";
  List.iter
    (fun f ->
      if f < 0 || f >= n then invalid_arg "Recovery_line: bad faulty pid")
    faulty

let lemma1 ccp ~faulty =
  let n = Ccp.n ccp in
  check_faulty ~n faulty;
  let component i =
    (* max gamma such that no faulty last stable checkpoint precedes
       c^gamma_i: the preceded checkpoints of p_i form a suffix *)
    let gamma =
      List.fold_left
        (fun gamma f ->
          min gamma
            (Ccp.first_preceded ccp (Ccp.last_stable_ckpt ccp f) ~pid:i - 1))
        (Ccp.volatile_index ccp i) faulty
    in
    if gamma < 0 then
      invalid_arg "Recovery_line.lemma1: no admissible checkpoint";
    gamma
  in
  Array.init n component

let by_max_consistent ccp ~faulty =
  let n = Ccp.n ccp in
  check_faulty ~n faulty;
  let bound =
    Array.init n (fun i ->
        if List.mem i faulty then Ccp.last_stable ccp i
        else Ccp.volatile_index ccp i)
  in
  match Consistency.max_consistent ccp ~bound with
  | Some line -> line
  | None -> failwith "Recovery_line.by_max_consistent: no consistent line"

let from_snapshots snaps ~faulty =
  let n = Array.length snaps in
  check_faulty ~n faulty;
  let li = Global_gc.last_interval_vector snaps in
  let component i =
    let entries = snaps.(i).Global_gc.entries in
    let len = Array.length entries in
    let dv_at = Global_gc.dv_at snaps.(i) in
    (* as in [lemma1]; a faulty process's own live DV reaches [LI.(i)]
       in entry [i], so its volatile state never qualifies *)
    let pos =
      List.fold_left
        (fun pos f ->
          Int.min pos (Global_gc.first_reaching ~len ~dv_at ~f ~x:li.(f) - 1))
        len faulty
    in
    if pos < 0 then
      invalid_arg "Recovery_line.from_snapshots: no admissible checkpoint";
    if pos = len then li.(i) else entries.(pos).Stable_store.index
  in
  Array.init n component

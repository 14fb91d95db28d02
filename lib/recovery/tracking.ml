module Dv_archive = Rdt_storage.Dv_archive
module Global_gc = Rdt_gc.Global_gc

type target = { pid : int; index : int }

(* Every process's DV history: the archived vector of each stable
   checkpoint, then the live DV of the volatile state. *)
type view = {
  n : int;
  last : int array;  (* last stable checkpoint index per process *)
  archives : Dv_archive.t array;
  live_dvs : int array array;
}

let view_of ~archives ~live_dvs =
  if Array.length archives <> Array.length live_dvs then
    invalid_arg "Tracking: archives / live_dvs arity mismatch";
  Array.iter
    (fun a ->
      if Dv_archive.count a = 0 then invalid_arg "Tracking: empty archive")
    archives;
  {
    n = Array.length archives;
    last = Array.map Dv_archive.last_index archives;
    archives;
    live_dvs;
  }

let volatile_index v pid = v.last.(pid) + 1

let dv_of v { pid; index } =
  if index < 0 || index > volatile_index v pid then
    invalid_arg "Tracking: checkpoint index out of range";
  if index > v.last.(pid) then v.live_dvs.(pid)
  else
    match Dv_archive.find v.archives.(pid) ~index with
    | Some dv -> dv
    | None -> invalid_arg "Tracking: checkpoint index out of range"

(* Equation 2, extended to volatile checkpoints (which precede nothing). *)
let precedes v a b =
  if a.pid = b.pid then a.index < b.index
  else if a.index > v.last.(a.pid) then false
  else a.index < (dv_of v b).(a.pid)

let consistent_pair v a b =
  (not (precedes v a b)) && not (precedes v b a)

let check_targets v targets =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun t ->
      if t.pid < 0 || t.pid >= v.n then invalid_arg "Tracking: bad target pid";
      if t.index < 0 || t.index > volatile_index v t.pid then
        invalid_arg "Tracking: bad target index";
      if Hashtbl.mem seen t.pid then
        invalid_arg "Tracking: two targets on one process";
      Hashtbl.add seen t.pid t.index)
    targets;
  seen

let verify_consistent v (global : int array) =
  let ok = ref true in
  for i = 0 to v.n - 1 do
    for j = 0 to v.n - 1 do
      if
        i <> j
        && precedes v { pid = i; index = global.(i) }
             { pid = j; index = global.(j) }
      then ok := false
    done
  done;
  !ok

let build v targets ~component =
  let fixed = check_targets v targets in
  if
    not
      (List.for_all
         (fun a ->
           List.for_all
             (fun b ->
               (a.pid = b.pid && a.index = b.index)
               || consistent_pair v a b)
             targets)
         targets)
  then None
  else begin
    let global =
      Array.init v.n (fun pid ->
          match Hashtbl.find_opt fixed pid with
          | Some index -> index
          | None -> component pid)
    in
    (* Wang's closed forms are exact on RD-trackable patterns; a failure
       here means the input was not RDT (or the DV table incomplete). *)
    if verify_consistent v global then Some global
    else
      failwith
        "Tracking: closed form produced an inconsistent global checkpoint \
         — is the execution RD-trackable?"
  end

let max_component v targets pid =
  (* Lemma 1's shape, the targets in place of the faulty processes' last
     stable checkpoints: the last index no stable target precedes *)
  let len = volatile_index v pid in
  let dv_at index = dv_of v { pid; index } in
  let gamma =
    List.fold_left
      (fun gamma s ->
        if s.index > v.last.(s.pid) then gamma (* volatile: precedes nothing *)
        else
          Global_gc.first_reaching ~len ~dv_at ~f:s.pid ~x:(s.index + 1) - 1
          |> Int.min gamma)
      len targets
  in
  if gamma < 0 then
    invalid_arg "Tracking: no admissible checkpoint (malformed pattern)";
  gamma

let min_component v targets pid =
  (* first index that precedes no target: [c^g_pid -> s] iff
     [g < DV(s).(pid)], and the volatile checkpoint precedes nothing *)
  Int.min (volatile_index v pid)
    (List.fold_left (fun gamma s -> Int.max gamma (dv_of v s).(pid)) 0 targets)

(* --- public API -------------------------------------------------------- *)

let max_consistent_containing ~archives ~live_dvs targets =
  let v = view_of ~archives ~live_dvs in
  build v targets ~component:(max_component v targets)

let min_consistent_containing ~archives ~live_dvs targets =
  let v = view_of ~archives ~live_dvs in
  build v targets ~component:(min_component v targets)

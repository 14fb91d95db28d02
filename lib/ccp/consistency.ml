type global = int array

let check_member ccp g i =
  let c : Ccp.ckpt = { pid = i; index = g.(i) } in
  if not (Ccp.mem ccp c) then
    invalid_arg "Consistency: index is not a checkpoint of the CCP";
  c

let is_consistent ccp g =
  let n = Ccp.n ccp in
  if Array.length g <> n then invalid_arg "Consistency.is_consistent: arity";
  let members = Array.init n (check_member ccp g) in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Ccp.precedes ccp members.(i) members.(j) then ok := false
    done
  done;
  !ok

let count_rolled_back ccp g =
  let total = ref 0 in
  Array.iteri
    (fun i gi -> total := !total + (Ccp.volatile_index ccp i - gi))
    g;
  !total

(* Rollback propagation: whenever member i causally precedes member j,
   j must move to an earlier checkpoint.  Lowering only removes incoming
   dependencies of j, and the set of consistent global checkpoints below a
   bound is a lattice, so the fixpoint is its maximum. *)
let max_consistent_fixpoint ccp ~candidate ~fixed =
  let n = Ccp.n ccp in
  let exception No_solution in
  let changed = ref true in
  try
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let ci : Ccp.ckpt = { pid = i; index = candidate.(i) } in
            let cj : Ccp.ckpt = { pid = j; index = candidate.(j) } in
            if Ccp.precedes ccp ci cj then begin
              if fixed.(j) then raise No_solution
              else begin
                candidate.(j) <- candidate.(j) - 1;
                if candidate.(j) < 0 then raise No_solution;
                changed := true
              end
            end
          end
        done
      done
    done;
    Some candidate
  with No_solution -> None

let max_consistent ccp ~bound =
  let n = Ccp.n ccp in
  if Array.length bound <> n then invalid_arg "Consistency.max_consistent";
  let candidate =
    Array.init n (fun i -> min bound.(i) (Ccp.volatile_index ccp i))
  in
  if Array.exists (fun b -> b < 0) candidate then None
  else max_consistent_fixpoint ccp ~candidate ~fixed:(Array.make n false)

let max_consistent_containing ccp targets =
  let n = Ccp.n ccp in
  let candidate = Array.init n (Ccp.volatile_index ccp) in
  let fixed = Array.make n false in
  let set_target (c : Ccp.ckpt) =
    if not (Ccp.mem ccp c) then
      invalid_arg "Consistency.max_consistent_containing: bad checkpoint";
    if fixed.(c.pid) && candidate.(c.pid) <> c.index then
      invalid_arg
        "Consistency.max_consistent_containing: two targets on one process";
    candidate.(c.pid) <- c.index;
    fixed.(c.pid) <- true
  in
  List.iter set_target targets;
  max_consistent_fixpoint ccp ~candidate ~fixed

(* Dual fixpoint: members start at the initial checkpoints and are raised
   past any dependency pointing into the target set or into other raised
   members.  Raising only removes outgoing dependencies, so the result is
   the lattice minimum. *)
let min_consistent_containing ccp targets =
  let n = Ccp.n ccp in
  let candidate = Array.make n 0 in
  let fixed = Array.make n false in
  let set_target (c : Ccp.ckpt) =
    if not (Ccp.mem ccp c) then
      invalid_arg "Consistency.min_consistent_containing: bad checkpoint";
    if fixed.(c.pid) && candidate.(c.pid) <> c.index then
      invalid_arg
        "Consistency.min_consistent_containing: two targets on one process";
    candidate.(c.pid) <- c.index;
    fixed.(c.pid) <- true
  in
  List.iter set_target targets;
  let exception No_solution in
  let changed = ref true in
  try
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let ci : Ccp.ckpt = { pid = i; index = candidate.(i) } in
            let cj : Ccp.ckpt = { pid = j; index = candidate.(j) } in
            if Ccp.precedes ccp ci cj then begin
              if fixed.(i) then
                (* A fixed member precedes candidate j.  Incoming
                   dependencies only grow with the index, so every index
                   >= candidate.(j) is also preceded; since the minimum
                   solution dominates the candidate pointwise, no solution
                   exists. *)
                raise No_solution
              else begin
                (* candidate i precedes someone: raise i past the
                   dependency *)
                candidate.(i) <- candidate.(i) + 1;
                if candidate.(i) > Ccp.volatile_index ccp i then
                  raise No_solution;
                changed := true
              end
            end
          end
        done
      done
    done;
    Some candidate
  with No_solution -> None

let brute_force_max_consistent ccp ~bound =
  let n = Ccp.n ccp in
  let best = ref None in
  let candidate = Array.make n 0 in
  let consider () =
    if is_consistent ccp candidate then begin
      let cost = count_rolled_back ccp candidate in
      match !best with
      | Some (_, best_cost) when best_cost <= cost -> ()
      | Some _ | None -> best := Some (Array.copy candidate, cost)
    end
  in
  let rec enumerate i =
    if i = n then consider ()
    else begin
      let hi = min bound.(i) (Ccp.volatile_index ccp i) in
      for v = 0 to hi do
        candidate.(i) <- v;
        enumerate (i + 1)
      done
    end
  in
  if Array.exists (fun b -> b < 0) bound then None
  else begin
    enumerate 0;
    Option.map fst !best
  end

(* Delta debugging over scenarios: chunked op removal (ddmin), whole
   process removal, then a greedy single-op pass, iterated to fixpoint.
   Every candidate is statically normalized, so removals never produce
   ill-formed scenarios, and a candidate only survives if the caller's
   check says its re-run fails the SAME way as the original — shrinking
   must not wander to a different bug. *)

let set_ops sc ops = Scenario.normalize { sc with Scenario.ops }

let rec ddmin test sc ops n_chunks =
  let len = List.length ops in
  if len <= 1 then ops
  else begin
    let n_chunks = min n_chunks len in
    let chunk_size = (len + n_chunks - 1) / n_chunks in
    let rec scan ci =
      if ci * chunk_size >= len then None
      else begin
        let lo = ci * chunk_size and hi = min len ((ci + 1) * chunk_size) in
        let remaining = List.filteri (fun i _ -> i < lo || i >= hi) ops in
        let cand = set_ops sc remaining in
        if Scenario.op_count cand < len && test cand then
          Some cand.Scenario.ops
        else scan (ci + 1)
      end
    in
    match scan 0 with
    | Some smaller -> ddmin test sc smaller (max (n_chunks - 1) 2)
    | None ->
      if n_chunks >= len then ops else ddmin test sc ops (min len (2 * n_chunks))
  end

let drop_procs test sc =
  let rec go sc pid =
    if pid >= sc.Scenario.n then sc
    else begin
      match Scenario.remove_process sc pid with
      | Some cand when test cand -> go cand 0
      | _ -> go sc (pid + 1)
    end
  in
  go sc 0

let greedy test sc =
  let rec go sc i =
    let ops = sc.Scenario.ops in
    if i >= List.length ops then sc
    else begin
      let cand = set_ops sc (List.filteri (fun j _ -> j <> i) ops) in
      if test cand then go cand i else go sc (i + 1)
    end
  in
  go sc 0

let default_budget = 1500

let minimize_with ?(budget = default_budget) ~check sc =
  let attempts = ref 0 in
  let test cand =
    !attempts < budget
    && begin
         incr attempts;
         check cand
       end
  in
  let sc = Scenario.normalize sc in
  let rec fixpoint sc =
    let before = (Scenario.op_count sc, sc.Scenario.n) in
    let sc = set_ops sc (ddmin test sc sc.Scenario.ops 2) in
    let sc = drop_procs test sc in
    let sc = greedy test sc in
    let c0, n0 = before in
    let c = Scenario.op_count sc and n = sc.Scenario.n in
    if (c < c0 || (c = c0 && n < n0)) && !attempts < budget then fixpoint sc
    else sc
  in
  fixpoint sc

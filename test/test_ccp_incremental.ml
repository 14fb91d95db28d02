(* The incremental analysis engine: a live {!Ccp.Incremental} view must
   agree with from-scratch rebuilds at every point of a randomized
   execution, through appends, out-of-order deliveries and rollbacks; the
   causal-frontier lookup {!Ccp.first_preceded} and the Oracle sweeps
   built on it must agree with literal {!Ccp.precedes} scans. *)

module Trace = Rdt_ccp.Trace
module Ccp = Rdt_ccp.Ccp
module Zigzag = Rdt_ccp.Zigzag
module Oracle = Rdt_gc.Oracle
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Figures = Rdt_scenarios.Figures

let ck pid index : Ccp.ckpt = { pid; index }

(* --- randomized trace growth ------------------------------------------ *)

(* Grows a trace with checkpoints, immediate messages, and out-of-order
   deliveries (a send held back and received after later sends — the
   non-FIFO case). *)
let grow_random ~rng ~steps trace =
  let n = Trace.n trace in
  let pending = ref [] in
  for _ = 1 to steps do
    match Random.State.int rng 10 with
    | 0 | 1 -> Trace.checkpoint trace (Random.State.int rng n)
    | 2 ->
      (* hold a send back *)
      let src = Random.State.int rng n in
      let dst = (src + 1 + Random.State.int rng (n - 1)) mod n in
      let id = Trace.send trace ~src ~dst in
      pending := (id, src, dst) :: !pending
    | 3 | 4 -> begin
      (* deliver a held send, newest first: out-of-order vs send time *)
      match !pending with
      | (id, src, dst) :: rest ->
        pending := rest;
        Trace.receive trace ~msg_id:id ~src ~dst
      | [] -> ()
    end
    | _ ->
      let src = Random.State.int rng n in
      let dst = (src + 1 + Random.State.int rng (n - 1)) mod n in
      Trace.message trace ~src ~dst
  done

let check_equal_ccp ~msg live fresh =
  let n = Ccp.n fresh in
  Alcotest.(check int) (msg ^ ": n") n (Ccp.n live);
  for pid = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: last_stable p%d" msg pid)
      (Ccp.last_stable fresh pid) (Ccp.last_stable live pid);
    Alcotest.(check int)
      (Printf.sprintf "%s: volatile_index p%d" msg pid)
      (Ccp.volatile_index fresh pid)
      (Ccp.volatile_index live pid)
  done;
  Alcotest.(check int)
    (msg ^ ": message count")
    (Array.length (Ccp.messages fresh))
    (Array.length (Ccp.messages live));
  Alcotest.(check bool)
    (msg ^ ": message lists equal")
    true
    (Ccp.messages fresh = Ccp.messages live);
  (* full precedes matrix, volatile checkpoints included *)
  let cs = Ccp.checkpoints fresh in
  List.iter
    (fun c1 ->
      List.iter
        (fun c2 ->
          Alcotest.(check bool)
            (Format.asprintf "%s: precedes %a %a" msg Ccp.pp_ckpt c1
               Ccp.pp_ckpt c2)
            (Ccp.precedes fresh c1 c2)
            (Ccp.precedes live c1 c2))
        cs)
    cs

let test_incremental_matches_rebuild () =
  let rng = Random.State.make [| 42 |] in
  let trace = Trace.init_with_initial_checkpoints ~n:4 in
  let incr = Ccp.Incremental.of_trace trace in
  for round = 1 to 8 do
    grow_random ~rng ~steps:40 trace;
    check_equal_ccp
      ~msg:(Printf.sprintf "round %d" round)
      (Ccp.Incremental.ccp incr) (Ccp.of_trace trace)
  done

(* --- rollback (trace truncation) --------------------------------------- *)

let test_rollback_invalidates () =
  let trace = Trace.init_with_initial_checkpoints ~n:3 in
  let incr = Ccp.Incremental.of_trace trace in
  Trace.message trace ~src:0 ~dst:1;
  Trace.checkpoint trace 1;
  (* a send that is never received: erased cleanly by the rollback *)
  ignore (Trace.send trace ~src:1 ~dst:2);
  Trace.message trace ~src:2 ~dst:0;
  let before = Ccp.Incremental.ccp incr in
  Alcotest.(check int) "p1 took s1" 1 (Ccp.last_stable before 1);
  (* roll p1 back to s0: erases its receive (the message becomes
     in-transit, which the model allows), its checkpoint and its send *)
  Trace.truncate_to_checkpoint trace ~pid:1 ~index:0;
  let live = Ccp.Incremental.ccp incr in
  check_equal_ccp ~msg:"after rollback" live (Ccp.of_trace trace);
  Alcotest.(check int) "p1 rolled back to s0" 0 (Ccp.last_stable live 1);
  (* appends after the rollback keep folding in *)
  Trace.message trace ~src:0 ~dst:2;
  Trace.checkpoint trace 0;
  check_equal_ccp ~msg:"appends after rollback"
    (Ccp.Incremental.ccp incr) (Ccp.of_trace trace);
  (* a second rollback: zigzag queries on the rebuilt view see only the
     surviving messages *)
  Trace.checkpoint trace 2;
  ignore (Trace.send trace ~src:2 ~dst:0);
  Trace.truncate_to_checkpoint trace ~pid:2 ~index:1;
  Alcotest.(check (array int)) "reach after the second rollback"
    (Zigzag.reach (Ccp.of_trace trace) ~src:(ck 2 0))
    (Zigzag.reach (Ccp.Incremental.ccp incr) ~src:(ck 2 0))

(* --- the runner's live view ------------------------------------------- *)

let faulty_config seed =
  {
    Sim_config.default with
    n = 4;
    seed;
    duration = 60.0;
    gc = Sim_config.Local;
    sample_interval = 2.0;
    workload =
      {
        Workload.pattern = Workload.Uniform;
        send_mean_interval = 0.8;
        basic_ckpt_mean_interval = 4.0;
        reply_probability = 0.3;
      };
    faults =
      [
        { Sim_config.crash_at = 20.0; pid = 1; repair_after = 3.0 };
        { Sim_config.crash_at = 41.0; pid = 2; repair_after = 2.0 };
      ];
  }

let test_runner_ccp_through_recovery () =
  List.iter
    (fun seed ->
      let t = Runner.create ~record:true (faulty_config seed) in
      (* query at every sample point so the incremental view is exercised
         across the rollbacks, not only at the end *)
      Runner.set_on_sample t (fun t ->
          ignore (Ccp.messages (Runner.ccp t)));
      Runner.run t;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: sessions happened" seed)
        true
        (List.length (Runner.recoveries t) >= 1);
      check_equal_ccp
        ~msg:(Printf.sprintf "seed %d: runner vs rebuild" seed)
        (Runner.ccp t)
        (Ccp.of_trace (Runner.trace t)))
    [ 5; 23 ]

(* --- the causal frontier and the oracle built on it --------------------- *)

(* [first_preceded] and [Oracle.witness] against a literal scan of
   [Ccp.precedes], from every checkpoint (volatile ones included) to every
   process (its own included). *)
let test_first_preceded_scan () =
  let rng = Random.State.make [| 31415 |] in
  for round = 1 to 5 do
    let trace = Trace.init_with_initial_checkpoints ~n:4 in
    grow_random ~rng ~steps:(40 * round) trace;
    let ccp = Ccp.of_trace trace in
    let scan c ~pid =
      let none = Ccp.volatile_index ccp pid + 1 in
      let rec go g =
        if g = none || Ccp.precedes ccp c (ck pid g) then g else go (g + 1)
      in
      go 0
    in
    List.iter
      (fun c ->
        for pid = 0 to Ccp.n ccp - 1 do
          Alcotest.(check int)
            (Format.asprintf "round %d: first_preceded %a on p%d" round
               Ccp.pp_ckpt c pid)
            (scan c ~pid)
            (Ccp.first_preceded ccp c ~pid)
        done)
      (Ccp.checkpoints ccp);
    for pid = 0 to Ccp.n ccp - 1 do
      for f = 0 to Ccp.n ccp - 1 do
        Alcotest.(check int)
          (Printf.sprintf "round %d: witness p%d f=%d" round pid f)
          (scan (Ccp.last_stable_ckpt ccp f) ~pid - 1)
          (Oracle.witness ccp ~pid ~f)
      done
    done
  done

let reference_obsolete ccp =
  List.filter
    (fun c -> Oracle.needed_by ccp c = [])
    (Helpers.stable_checkpoints ccp)

let test_oracle_sweeps () =
  let rng = Random.State.make [| 2718 |] in
  for _round = 1 to 5 do
    let trace = Trace.init_with_initial_checkpoints ~n:5 in
    grow_random ~rng ~steps:150 trace;
    let ccp = Ccp.of_trace trace in
    Alcotest.(check bool) "obsolete = reference" true
      (Oracle.obsolete ccp = reference_obsolete ccp);
    List.iter
      (fun c ->
        Alcotest.(check bool)
          (Format.asprintf "is_obsolete %a" Ccp.pp_ckpt c)
          (Oracle.needed_by ccp c = [])
          (Oracle.is_obsolete ccp c))
      (Helpers.stable_checkpoints ccp);
    for pid = 0 to Ccp.n ccp - 1 do
      let reference =
        List.filter_map
          (fun (c : Ccp.ckpt) ->
            if c.pid = pid && Oracle.needed_by ccp c <> [] then Some c.index
            else None)
          (Helpers.stable_checkpoints ccp)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "retained p%d" pid)
        reference
        (Oracle.retained ccp ~pid)
    done
  done

let test_oracle_rejects_volatile () =
  let f = Figures.figure1 () in
  Alcotest.check_raises "volatile checkpoint rejected"
    (Invalid_argument "Oracle: Theorem 1 characterizes stable checkpoints")
    (fun () -> ignore (Oracle.is_obsolete f.ccp (Helpers.volatile f.ccp 0)))

let suite =
  [
    Alcotest.test_case "incremental view matches rebuilds" `Quick
      test_incremental_matches_rebuild;
    Alcotest.test_case "rollback invalidates and rebuilds" `Quick
      test_rollback_invalidates;
    Alcotest.test_case "runner live view through recoveries" `Quick
      test_runner_ccp_through_recovery;
    Alcotest.test_case "first_preceded = precedes scan" `Quick
      test_first_preceded_scan;
    Alcotest.test_case "oracle sweeps = reference" `Quick test_oracle_sweeps;
    Alcotest.test_case "oracle rejects volatile checkpoints" `Quick
      test_oracle_rejects_volatile;
  ]

module Rdt_check = Rdt_ccp.Rdt_check
module Ccp = Rdt_ccp.Ccp
module Zigzag = Rdt_ccp.Zigzag
module Figures = Rdt_scenarios.Figures
module Protocol = Rdt_protocols.Protocol
module Script = Rdt_scenarios.Script

let test_figure1_is_rdt () =
  let f = Figures.figure1 () in
  Alcotest.(check bool) "holds" true (Rdt_check.holds f.ccp)

let test_figure1_without_m3_is_not () =
  let ccp = Figures.figure1_without_m3 () in
  Alcotest.(check bool) "violated" false (Rdt_check.holds ccp);
  (* the specific violation the paper names: s1_p0 ~~> s2_p2 untracked *)
  let violations = Rdt_check.violations ccp in
  let expected (v : Rdt_check.violation) =
    v.source = { Ccp.pid = 0; index = 1 } && v.target = { Ccp.pid = 2; index = 2 }
  in
  Alcotest.(check bool) "paper's violation reported" true
    (List.exists expected violations)

let test_figure2_is_not_rdt () =
  let f = Figures.figure2 () in
  Alcotest.(check bool) "domino pattern violates RDT" false
    (Rdt_check.holds f.ccp)

let test_violations_limit () =
  let ccp = Figures.figure1_without_m3 () in
  Alcotest.(check int) "limit respected" 1
    (List.length (Rdt_check.violations ~limit:1 ccp))

(* The pairwise reference: every (source, target) pair with a zigzag path
   and no causal precedence, in checkpoint order. *)
let reference_violations ?(limit = max_int) ccp =
  let ckpts = Ccp.checkpoints ccp in
  let pairs =
    List.concat_map
      (fun source ->
        let r = Zigzag.reach ccp ~src:source in
        List.filter_map
          (fun (target : Ccp.ckpt) ->
            if
              r.(target.pid) <= target.index
              && not (Ccp.precedes ccp source target)
            then Some { Rdt_check.source; target }
            else None)
          ckpts)
      ckpts
  in
  List.filteri (fun i _ -> i < limit) pairs

let test_violations_match_reference () =
  let seen = ref 0 in
  for seed = 1 to 12 do
    let ccp = Ccp.of_trace (Helpers.random_trace ~seed ~n:4 ~ops:60) in
    let expected = reference_violations ccp in
    if expected <> [] then incr seen;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: all violations" seed)
      true
      (Rdt_check.violations ccp = expected);
    List.iter
      (fun limit ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: first %d violations" seed limit)
          true
          (Rdt_check.violations ~limit ccp = reference_violations ~limit ccp))
      [ 1; 3; 10 ]
  done;
  Alcotest.(check bool) "some traces are not RD-trackable" true (!seen > 0)

let test_empty_execution_is_rdt () =
  let t = Rdt_ccp.Trace.init_with_initial_checkpoints ~n:3 in
  Alcotest.(check bool) "trivially RDT" true (Rdt_check.holds (Ccp.of_trace t))

(* Every protocol that claims RDT must produce RD-trackable CCPs on the
   figure-2 adversarial interleaving. *)
let test_protocols_break_figure2 () =
  List.iter
    (fun p ->
      let s = Figures.figure2_with_protocol p in
      let ccp = Script.ccp s in
      Alcotest.(check bool)
        (Printf.sprintf "%s yields RDT on the domino interleaving"
           p.Protocol.id)
        true (Rdt_check.holds ccp))
    Protocol.rdt_protocols

let test_no_forced_reproduces_domino () =
  let s = Figures.figure2_with_protocol Protocol.no_forced in
  let ccp = Script.ccp s in
  Alcotest.(check bool) "no forced checkpoints" true
    (Script.forced_taken s 0 = 0 && Script.forced_taken s 1 = 0);
  Alcotest.(check bool) "not RDT" false (Rdt_check.holds ccp);
  Alcotest.(check bool) "has useless checkpoints" true
    (Zigzag.useless ccp <> [])

let test_fdas_prevents_domino () =
  let s = Figures.figure2_with_protocol Protocol.fdas in
  Alcotest.(check bool) "took at least one forced checkpoint" true
    (Script.forced_taken s 0 + Script.forced_taken s 1 > 0);
  Alcotest.(check (list string)) "no useless checkpoints" []
    (List.map
       (fun (c : Ccp.ckpt) -> Printf.sprintf "%d_%d" c.pid c.index)
       (Zigzag.useless (Script.ccp s)))

(* RDT implies no useless checkpoints (the paper's Section 2.3 argument),
   checked on protocol-driven random executions via the runner. *)
let prop_rdt_protocols_yield_rdt =
  QCheck.Test.make ~name:"protocol executions are RD-trackable" ~count:40
    QCheck.(make Gen.(int_bound 1_000))
    (fun case ->
      let t = Helpers.run_case case in
      let ccp = Rdt_core.Runner.ccp t in
      Rdt_check.holds ccp && Zigzag.useless ccp = [])

(* BCS does not guarantee RDT, but it does guarantee the absence of
   zigzag cycles — no checkpoint it takes is ever useless. *)
let prop_bcs_z_cycle_free =
  QCheck.Test.make ~name:"BCS executions are Z-cycle free" ~count:20
    QCheck.(make Gen.(int_bound 1_000))
    (fun case ->
      let cfg =
        {
          (Helpers.sim_config_of_case ~gc:Rdt_core.Sim_config.No_gc case) with
          Rdt_core.Sim_config.protocol = Protocol.bcs;
        }
      in
      let t = Rdt_core.Runner.create cfg in
      Rdt_core.Runner.run t;
      Zigzag.useless (Rdt_core.Runner.ccp t) = [])

let suite =
  [
    Alcotest.test_case "figure 1 is RDT" `Quick test_figure1_is_rdt;
    Alcotest.test_case "figure 1 without m3 is not" `Quick
      test_figure1_without_m3_is_not;
    Alcotest.test_case "figure 2 is not RDT" `Quick test_figure2_is_not_rdt;
    Alcotest.test_case "violations limit" `Quick test_violations_limit;
    Alcotest.test_case "violations = pairwise reference" `Quick
      test_violations_match_reference;
    Alcotest.test_case "empty execution is RDT" `Quick
      test_empty_execution_is_rdt;
    Alcotest.test_case "RDT protocols fix the domino interleaving" `Quick
      test_protocols_break_figure2;
    Alcotest.test_case "no-forced reproduces the domino effect" `Quick
      test_no_forced_reproduces_domino;
    Alcotest.test_case "FDAS prevents the domino effect" `Quick
      test_fdas_prevents_domino;
    QCheck_alcotest.to_alcotest prop_rdt_protocols_yield_rdt;
    QCheck_alcotest.to_alcotest prop_bcs_z_cycle_free;
  ]

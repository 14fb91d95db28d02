module Rdt_check = Rdt_ccp.Rdt_check
module Ccp = Rdt_ccp.Ccp
module Zigzag = Rdt_ccp.Zigzag
module Figures = Rdt_scenarios.Figures
module Protocol = Rdt_protocols.Protocol
module Script = Rdt_scenarios.Script
module Oracles = Rdt_verify.Oracles

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

(* --- the shared sweep ---------------------------------------------------

   [Rdt_check.analyze] reads the useless checkpoints and the violations off
   one [Zigzag.sweep].  Each is checked against a computation that runs no
   sweep: [path_exists ccp c c] per checkpoint, and the pairwise reference
   above. *)

let sweep_matches_references ccp =
  let cycles =
    List.filter (fun c -> Zigzag.path_exists ccp c c) (Ccp.checkpoints ccp)
  in
  let all = reference_violations ccp in
  let analysis = Rdt_check.analyze ccp in
  Zigzag.useless ccp = cycles
  && analysis.useless = cycles
  && analysis.violations = all
  && List.for_all
       (fun limit ->
         let first = List.filteri (fun i _ -> i < limit) all in
         let { Rdt_check.useless; violations } = Rdt_check.analyze ~limit ccp in
         useless = cycles && violations = first
         && Rdt_check.violations ~limit ccp = first)
       (List.init (List.length all + 2) Fun.id)
  && Rdt_check.holds ccp = (all = [])

let test_sweep_on_figures () =
  List.iter
    (fun (name, ccp) ->
      Alcotest.(check bool) name true (sweep_matches_references ccp))
    [
      ("figure 1", (Figures.figure1 ()).ccp);
      ("figure 1 without m3", Figures.figure1_without_m3 ());
      ("figure 2", (Figures.figure2 ()).ccp);
    ];
  (* the random traces the property below draws from do contain Z-cycles *)
  Alcotest.(check bool) "some random trace has a useless checkpoint" true
    (List.exists
       (fun seed ->
         Zigzag.useless (Ccp.of_trace (Helpers.random_trace ~seed ~n:4 ~ops:60))
         <> [])
       (List.init 12 succ))

let prop_sweep_matches_references =
  QCheck.Test.make ~name:"one sweep = per-checkpoint cycles + pairwise reference"
    ~count:40
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 5)))
    (fun (seed, n) ->
      sweep_matches_references
        (Ccp.of_trace (Helpers.random_trace ~seed ~n ~ops:60)))

(* [Oracles.deep] as it was composed before the sweep was shared: the
   recovery-line checks, then a "zigzag" oracle over the useless
   checkpoints, then the first "rdt" violation, each computed on its own
   (here without any sweep). *)
let old_deep ~stack ~ccp ~op =
  let module Recovery_line = Rdt_recovery.Recovery_line in
  let module Stable_store = Rdt_storage.Stable_store in
  let v oracle fmt =
    Printf.ksprintf (fun detail -> { Oracles.oracle; op; detail }) fmt
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  let n = Ccp.n ccp in
  let lines =
    List.concat_map
      (fun f ->
        let line = Recovery_line.lemma1 ccp ~faulty:[ f ] in
        (if Rdt_ccp.Consistency.is_consistent ccp line then []
         else
           [
             v "line" "lemma-1 line (%s) for faulty={%d} is inconsistent"
               (ints (Array.to_list line))
               f;
           ])
        @ List.filter_map
            (fun pid ->
              let idx = line.(pid) in
              let retained =
                Stable_store.retained_indices
                  (Rdt_recovery.Process_stack.store (stack pid))
              in
              if idx <= Ccp.last_stable ccp pid && not (List.mem idx retained)
              then
                Some
                  (v "line"
                     "p%d's s^%d lies on the recovery line for faulty={%d} \
                      but was eliminated"
                     pid idx f)
              else None)
            (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let zigzag =
    match
      List.filter (fun c -> Zigzag.path_exists ccp c c) (Ccp.checkpoints ccp)
    with
    | [] -> []
    | l ->
      [
        v "zigzag" "useless checkpoints in an RDT execution: %s"
          (String.concat "," (List.map (Fmt.str "%a" Ccp.pp_ckpt) l));
      ]
  in
  let rdt =
    match reference_violations ~limit:1 ccp with
    | [] -> []
    | r :: _ ->
      [
        v "rdt" "execution is not RD-trackable: %s"
          (Fmt.str "%a" Rdt_check.pp_violation r);
      ]
  in
  lines @ zigzag @ rdt

let deep_matches_old s =
  let stack = Script.stack s and ccp = Script.ccp s in
  Oracles.deep ~stack ~ccp ~op:7 = old_deep ~stack ~ccp ~op:7

(* Random sends, deliveries and checkpoints under the non-RDT [none]
   protocol, with RDT-LGC attached: the collector's Equation-2 reasoning is
   unsound there, so every deep oracle gets a chance to fire. *)
let random_none_script ~seed ~n ~ops =
  let rng = Rdt_sim.Prng.create ~seed in
  let s = Script.create ~n ~protocol:(Helpers.protocol "none") ~with_lgc:true () in
  let pending = ref [] in
  for _ = 1 to ops do
    match Rdt_sim.Prng.int rng 4 with
    | 0 -> Script.checkpoint s (Rdt_sim.Prng.int rng n)
    | 1 | 2 ->
      let src = Rdt_sim.Prng.int rng n in
      let dst = (src + 1 + Rdt_sim.Prng.int rng (n - 1)) mod n in
      pending := Script.send s ~src ~dst :: !pending
    | _ -> (
      match !pending with
      | [] -> ()
      | l ->
        let pick = Rdt_sim.Prng.int rng (List.length l) in
        Script.deliver s (List.nth l pick);
        pending := List.filteri (fun i _ -> i <> pick) l)
  done;
  s

let test_deep_matches_old_composition () =
  let domino = Figures.figure2_with_protocol (Helpers.protocol "none") in
  let fired =
    List.map
      (fun (v : Oracles.violation) -> v.oracle)
      (Oracles.deep ~stack:(Script.stack domino) ~ccp:(Script.ccp domino)
         ~op:0)
  in
  Alcotest.(check bool) "both oracles fire on the domino pattern" true
    (List.mem "zigzag" fired && List.mem "rdt" fired);
  (* and the random scripts of the property below make every deep oracle
     fire *)
  let random_fired =
    List.concat_map
      (fun seed ->
        let s = random_none_script ~seed ~n:4 ~ops:60 in
        List.map
          (fun (v : Oracles.violation) -> v.oracle)
          (Oracles.deep ~stack:(Script.stack s) ~ccp:(Script.ccp s) ~op:0))
      (List.init 12 succ)
  in
  List.iter
    (fun oracle ->
      Alcotest.(check bool) (oracle ^ " fires on a random script") true
        (List.mem oracle random_fired))
    [ "line"; "zigzag"; "rdt" ];
  List.iter
    (fun (name, s) -> Alcotest.(check bool) name true (deep_matches_old s))
    (List.map
       (fun p ->
         (Printf.sprintf "figure 2 under %s" p.Protocol.id,
          Figures.figure2_with_protocol p))
       Protocol.all
    @ [ ("figure 4", Figures.figure4 ()); ("worst case n=3", Figures.worst_case ~n:3) ])

let prop_deep_matches_old_composition =
  QCheck.Test.make ~name:"deep = lines @ zigzag @ rdt under none" ~count:40
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 5)))
    (fun (seed, n) -> deep_matches_old (random_none_script ~seed ~n ~ops:60))

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
  let s = Figures.figure2_with_protocol (Helpers.protocol "none") in
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
          Rdt_core.Sim_config.protocol = (Helpers.protocol "bcs");
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
    Alcotest.test_case "one sweep = references on figures 1-2" `Quick
      test_sweep_on_figures;
    QCheck_alcotest.to_alcotest prop_sweep_matches_references;
    Alcotest.test_case "deep = old composition on scripts" `Quick
      test_deep_matches_old_composition;
    QCheck_alcotest.to_alcotest prop_deep_matches_old_composition;
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

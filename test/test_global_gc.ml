(* The DV-based global computations behind the coordinated baselines:
   Theorem 1 evaluation and the total-failure recovery line. *)

module Global_gc = Rdt_gc.Global_gc
module Oracle = Rdt_gc.Oracle
module Session = Rdt_recovery.Session
module Recovery_line = Rdt_recovery.Recovery_line
module Script = Rdt_scenarios.Script
module Figures = Rdt_scenarios.Figures
module Protocol = Rdt_protocols.Protocol
module Ccp = Rdt_ccp.Ccp

let snapshots_of s =
  Array.init (Script.n s) (fun pid -> Session.snapshot_of (Script.middleware s pid))

(* A no-GC scripted run where the DV computation can be compared with the
   trace oracle on the complete checkpoint set. *)
let rich_script () =
  let s = Script.create ~n:3 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  Script.transfer s ~src:1 ~dst:2;
  Script.checkpoint s 2;
  Script.checkpoint s 0;
  Script.transfer s ~src:2 ~dst:0;
  Script.checkpoint s 0;
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  Script.checkpoint s 2;
  Script.transfer s ~src:2 ~dst:1;
  s

let test_last_interval_vector () =
  let s = rich_script () in
  let snaps = snapshots_of s in
  (* p1 takes a forced checkpoint when the second message from p0 arrives
     (it had sent in that interval), hence 4 intervals *)
  Alcotest.(check (array int)) "LI = last_s + 1" [| 3; 4; 3 |]
    (Global_gc.last_interval_vector snaps)

let test_theorem1_matches_oracle () =
  let s = rich_script () in
  let snaps = snapshots_of s in
  let li = Global_gc.last_interval_vector snaps in
  let ccp = Script.ccp s in
  for pid = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "retained of p%d" pid)
      (Oracle.retained ccp ~pid)
      (Global_gc.retained snaps.(pid) ~li)
  done

let test_theorem1_collectable_is_complement () =
  let s = rich_script () in
  let snaps = snapshots_of s in
  let li = Global_gc.last_interval_vector snaps in
  for pid = 0 to 2 do
    let retained = Global_gc.retained snaps.(pid) ~li in
    let collectable = Global_gc.collectable snaps.(pid) ~li in
    let all =
      Array.to_list snaps.(pid).Global_gc.entries
      |> List.map (fun (e : Rdt_storage.Stable_store.entry) -> e.index)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "partition at p%d" pid)
      (List.sort compare all)
      (List.sort compare (retained @ collectable))
  done

let test_stale_li_is_conservative () =
  let s = rich_script () in
  let snaps = snapshots_of s in
  let li = Global_gc.last_interval_vector snaps in
  let stale = Array.map (fun v -> max 1 (v - 1)) li in
  for pid = 0 to 2 do
    let fresh_set = Global_gc.retained snaps.(pid) ~li in
    let stale_set = Global_gc.retained snaps.(pid) ~li:stale in
    (* staleness must only add retained checkpoints, never drop one...
       more precisely it must never collect something fresh knowledge
       keeps *)
    List.iter
      (fun kept ->
        if not (List.mem kept stale_set) then
          (* a checkpoint retained under fresh knowledge disappeared under
             stale knowledge: that would be unsafe only if it is
             non-obsolete; verify against the oracle *)
          let ccp = Script.ccp s in
          if not (Oracle.is_obsolete ccp { Ccp.pid; index = kept }) then
            Alcotest.failf "stale li dropped needed s^%d of p%d" kept pid)
      fresh_set
  done

let test_retained_for_basics () =
  let entry index dv : Rdt_storage.Stable_store.entry =
    { index; dv; taken_at = 0.0; size_bytes = 1; payload = 0 }
  in
  let entries =
    [| entry 0 [| 0; 0 |]; entry 1 [| 1; 1 |]; entry 2 [| 2; 3 |] |]
  in
  let snap = { Global_gc.entries; live_dv = [| 3; 3 |] } in
  (* positions equal indices here.  Knowing p1's interval 3: s^1 is the
     most recent checkpoint with dv.(1) < 3, and its successor reaches 3 *)
  Alcotest.(check (option int)) "pinned" (Some 1)
    (Global_gc.retained_for snap ~f:1 ~li_f:3);
  (* knowing only interval 1: s^0 pinned *)
  Alcotest.(check (option int)) "earlier knowledge" (Some 0)
    (Global_gc.retained_for snap ~f:1 ~li_f:1);
  (* no knowledge: nothing pinned *)
  Alcotest.(check (option int)) "no knowledge" None
    (Global_gc.retained_for snap ~f:1 ~li_f:0);
  (* knowledge beyond what any successor reaches: nothing pinned *)
  Alcotest.(check (option int)) "beyond" None
    (Global_gc.retained_for snap ~f:1 ~li_f:9)

(* R_Pi, the recovery line for the failure of every process, as the
   simple baseline computes it at run time *)
let total_recovery_line snaps =
  Recovery_line.from_snapshots snaps
    ~faulty:(List.init (Array.length snaps) Fun.id)

let test_total_recovery_line_safety () =
  let s = rich_script () in
  let snaps = snapshots_of s in
  let line = total_recovery_line snaps in
  let ccp = Script.ccp s in
  (* must equal the ground-truth recovery line for F = all processes *)
  Alcotest.(check (array int)) "R_Pi"
    (Recovery_line.lemma1 ccp ~faulty:[ 0; 1; 2 ])
    line

let test_below_total_line_subset_of_obsolete () =
  let s = rich_script () in
  let snaps = snapshots_of s in
  let ccp = Script.ccp s in
  let line = total_recovery_line snaps in
  for pid = 0 to 2 do
    for index = 0 to line.(pid) - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "s^%d of p%d below R_Pi is obsolete" index pid)
        true
        (Oracle.is_obsolete ccp { Ccp.pid; index })
    done
  done

(* the binary search behind retained_for, [first_reaching], against a
   linear reference on random monotone DV columns: an empty history,
   [x <= 0] and an [x] even the live vector misses included *)
let prop_retained_for_binary_search =
  QCheck.Test.make ~name:"retained_for binary search = linear reference"
    ~count:300
    QCheck.(
      make
        Gen.(triple (int_bound 1_000) (int_range 0 12) (int_range (-2) 40)))
    (fun (seed, len, x) ->
      let rng = Rdt_sim.Prng.create ~seed in
      (* monotone nondecreasing dv column; position [len] is the live DV *)
      let acc = ref 0 in
      let column =
        Array.init (len + 1) (fun _ ->
            acc := !acc + Rdt_sim.Prng.int rng 3;
            [| !acc |])
      in
      let dv_at pos = column.(pos) in
      let rec linear pos =
        if pos > len || column.(pos).(0) >= x then pos else linear (pos + 1)
      in
      let first = linear 0 in
      let snap =
        {
          Global_gc.entries =
            Array.init len (fun index ->
                {
                  Rdt_storage.Stable_store.index;
                  dv = column.(index);
                  taken_at = 0.0;
                  size_bytes = 1;
                  payload = 0;
                });
          live_dv = column.(len);
        }
      in
      Global_gc.first_reaching ~len ~dv_at ~f:0 ~x = first
      && Global_gc.retained_for snap ~f:0 ~li_f:x
         = if first >= 1 && first <= len then Some (first - 1) else None)

(* property: on random protocol-driven executions without local GC, the
   DV-based Theorem 1 equals the trace oracle — Equation 2 at work *)
let prop_theorem1_equals_oracle =
  QCheck.Test.make ~name:"DV Theorem 1 = trace oracle (Equation 2)" ~count:25
    QCheck.(make Gen.(int_bound 2_000))
    (fun case ->
      let t = Helpers.run_case ~gc:Rdt_core.Sim_config.No_gc case in
      let ccp = Rdt_core.Runner.ccp t in
      let n = Ccp.n ccp in
      let snaps =
        Array.init n (fun pid ->
            Session.snapshot_of (Rdt_core.Runner.middleware t pid))
      in
      let li = Global_gc.last_interval_vector snaps in
      List.for_all
        (fun pid ->
          Oracle.retained ccp ~pid
          = Global_gc.retained snaps.(pid) ~li)
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "last interval vector" `Quick test_last_interval_vector;
    Alcotest.test_case "Theorem 1 via DVs = oracle" `Quick
      test_theorem1_matches_oracle;
    Alcotest.test_case "collectable is the complement" `Quick
      test_theorem1_collectable_is_complement;
    Alcotest.test_case "stale LI is conservative" `Quick
      test_stale_li_is_conservative;
    Alcotest.test_case "retained_for basics" `Quick test_retained_for_basics;
    Alcotest.test_case "total recovery line" `Quick
      test_total_recovery_line_safety;
    Alcotest.test_case "below R_Pi is obsolete" `Quick
      test_below_total_line_subset_of_obsolete;
    QCheck_alcotest.to_alcotest prop_retained_for_binary_search;
    QCheck_alcotest.to_alcotest prop_theorem1_equals_oracle;
  ]

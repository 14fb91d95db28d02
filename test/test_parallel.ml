(* The team round behind the experiment harness ([Barrier_team.map]):
   input-order results, exception propagation, and byte-identical
   experiment artifacts at any team size. *)

module Barrier_team = Rdt_parallel.Barrier_team
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Series = Rdt_metrics.Series
module Table = Rdt_metrics.Table

let with_team ~jobs f =
  let team = Barrier_team.create ~size:jobs in
  Fun.protect ~finally:(fun () -> Barrier_team.shutdown team) (fun () -> f team)

let test_map_order () =
  List.iter
    (fun jobs ->
      with_team ~jobs (fun team ->
          let inputs = List.init 50 Fun.id in
          let doubled = Barrier_team.map team (fun x -> 2 * x) inputs in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d returns results in input order" jobs)
            (List.map (fun x -> 2 * x) inputs)
            doubled))
    [ 1; 2; 3; 4 ]

let test_map_empty_and_small () =
  with_team ~jobs:4 (fun team ->
      Alcotest.(check (list int))
        "empty input" []
        (Barrier_team.map team (fun x -> x) []);
      Alcotest.(check (list int))
        "fewer items than workers" [ 10 ]
        (Barrier_team.map team (fun x -> 10 * x) [ 1 ]))

let test_team_reuse () =
  with_team ~jobs:3 (fun team ->
      let a = Barrier_team.map team string_of_int [ 1; 2; 3 ] in
      let b = Barrier_team.map team String.length a in
      Alcotest.(check (list int)) "second map over first" [ 1; 1; 1 ] b)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      with_team ~jobs (fun team ->
          match
            Barrier_team.map team
              (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
              (List.init 9 Fun.id)
          with
          | _ -> Alcotest.fail "expected the task's exception to propagate"
          | exception Boom x ->
            (* all tasks drain, then the first failure in input order wins *)
            Alcotest.(check int)
              (Printf.sprintf "jobs=%d first input-order failure" jobs)
              2 x))
    [ 1; 4 ]

let test_default_jobs_positive () =
  Alcotest.(check bool)
    "recommended domain count is positive" true
    (Barrier_team.hardware_parallelism () >= 1)

(* The harness's real workload: independent simulation cells evaluated in
   a team round must produce exactly the sequential results, at any job
   count.  Compares full summaries and the sampled series values. *)
let cell_configs =
  List.concat_map
    (fun seed ->
      List.map
        (fun gc ->
          {
            Sim_config.default with
            n = 4;
            seed;
            duration = 30.0;
            gc;
            sample_interval = 2.0;
            workload =
              {
                Workload.pattern = Workload.Uniform;
                send_mean_interval = 0.8;
                basic_ckpt_mean_interval = 4.0;
                reply_probability = 0.3;
              };
          })
        [ Sim_config.No_gc; Sim_config.Local; Sim_config.Coordinated { period = 5.0 } ])
    [ 7; 19 ]

let run_cell cfg =
  let t = Runner.create cfg in
  Runner.run t;
  let s = Runner.summary t in
  let series =
    List.map Series.values (Array.to_list (Runner.retained_series t))
  in
  (s, series)

let check_cells_equal ~label sequential parallel =
  List.iteri
    (fun i ((s_seq, v_seq), (s_par, v_par)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s cell %d summary identical" label i)
        true
        (compare s_seq s_par = 0);
      Alcotest.(check (list (list (float 0.0))))
        (Printf.sprintf "%s cell %d series identical" label i)
        v_seq v_par)
    (List.combine sequential parallel)

let test_parallel_cells_equal_sequential () =
  let sequential = List.map run_cell cell_configs in
  List.iter
    (fun jobs ->
      with_team ~jobs (fun team ->
          check_cells_equal
            ~label:(Printf.sprintf "jobs=%d" jobs)
            sequential
            (Barrier_team.map team run_cell cell_configs)))
    [ 2; 4 ]

(* Rendered artifact: a results table filled from team results must be
   byte-identical to the sequentially filled one. *)
let render_table results =
  let t =
    Table.create
      ~columns:
        [ ("cell", Table.Left); ("mean retained", Table.Right); ("gc", Table.Left) ]
  in
  List.iteri
    (fun i ((s : Runner.summary), _) ->
      Table.add_row t
        [
          string_of_int i;
          Table.fmt_float s.Runner.mean_total_retained;
          s.Runner.gc;
        ])
    results;
  Table.render t

let test_rendered_table_identical () =
  let seq = render_table (List.map run_cell cell_configs) in
  with_team ~jobs:4 (fun team ->
      let par = render_table (Barrier_team.map team run_cell cell_configs) in
      Alcotest.(check string) "table text identical at -j 4" seq par)

let suite =
  [
    Alcotest.test_case "map preserves input order" `Quick test_map_order;
    Alcotest.test_case "empty and small inputs" `Quick test_map_empty_and_small;
    Alcotest.test_case "pool reuse across maps" `Quick test_team_reuse;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
    Alcotest.test_case "simulation cells: parallel = sequential" `Quick
      test_parallel_cells_equal_sequential;
    Alcotest.test_case "rendered table byte-identical" `Quick
      test_rendered_table_identical;
  ]

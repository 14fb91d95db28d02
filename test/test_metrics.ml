module Stats = Rdt_metrics.Stats
module Series = Rdt_metrics.Series
module Table = Rdt_metrics.Table

let feps = Alcotest.float 1e-9

let test_stats_basic () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.check feps "mean" 2.5 (Stats.mean s)

let test_stats_stddev () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  (* known sample stddev ~ 2.138 *)
  Alcotest.check (Alcotest.float 1e-3) "stddev" 2.138 (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.check feps "mean of empty" 0.0 (Stats.mean s);
  Alcotest.check feps "stddev of empty" 0.0 (Stats.stddev s)

let test_stats_single () =
  let s = Stats.of_list [ 42.0 ] in
  Alcotest.check feps "mean" 42.0 (Stats.mean s);
  Alcotest.check feps "stddev single" 0.0 (Stats.stddev s)

let test_stats_welford_stability () =
  let s = Stats.create () in
  for _ = 1 to 10_000 do
    Stats.add s 1e9;
    Stats.add s (1e9 +. 2.0)
  done;
  Alcotest.check (Alcotest.float 1e-3) "mean stable" (1e9 +. 1.0) (Stats.mean s);
  Alcotest.check (Alcotest.float 1e-3) "stddev stable" 1.0 (Stats.stddev s)

let test_percentile () =
  let l = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feps "p50" 50.0 (Stats.percentile l ~p:50.0);
  Alcotest.check feps "p99" 99.0 (Stats.percentile l ~p:99.0);
  Alcotest.check feps "p0 -> min" 1.0 (Stats.percentile l ~p:0.0);
  Alcotest.check feps "p100 -> max" 100.0 (Stats.percentile l ~p:100.0)

let test_series () =
  let s = Series.create ~name:"x" in
  Series.add_int s ~time:0.0 ~value:1;
  Series.add_int s ~time:1.0 ~value:3;
  Alcotest.(check int) "length" 2 (Series.length s);
  Alcotest.check feps "max" 3.0 (Series.max_value s);
  Alcotest.check feps "mean via stats" 2.0 (Stats.mean (Series.stats s))

let test_series_point_order () =
  let s = Series.create ~name:"x" in
  List.iter (fun i -> Series.add_int s ~time:(float_of_int i) ~value:i) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "in insertion order" [ 1; 2; 3 ]
    (List.map int_of_float (Series.values s))

(* [Table.print] writes the rendered table and a newline *)
let table_text t =
  let out = Helpers.stdout_of (fun () -> Table.print t) in
  String.sub out 0 (String.length out - 1)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = table_text t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* all lines same width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check bool) "right alignment" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       Table.add_row t [ "x"; "y" ];
       false
     with Invalid_argument _ -> true)

let test_table_separator () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Table.add_row t [ "x" ];
  Table.add_separator t;
  Table.add_row t [ "y" ];
  Alcotest.(check int) "5 lines" 5
    (List.length (String.split_on_char '\n' (table_text t)))

let test_fmt_helpers () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  Alcotest.(check string) "ratio" "3/4 (75.0%)" (Table.fmt_ratio 3.0 4.0);
  Alcotest.(check string) "ratio by zero" "-" (Table.fmt_ratio 3.0 0.0)

let suite =
  [
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats single" `Quick test_stats_single;
    Alcotest.test_case "welford stability" `Quick test_stats_welford_stability;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "series" `Quick test_series;
    Alcotest.test_case "series order" `Quick test_series_point_order;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "table separator" `Quick test_table_separator;
    Alcotest.test_case "format helpers" `Quick test_fmt_helpers;
  ]

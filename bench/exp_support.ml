(* Shared helpers for the experiment harness. *)

module Table = Rdt_metrics.Table
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload

let section title description =
  Printf.printf "\n=== %s ===\n%s\n\n" title description

let subsection title = Printf.printf "\n--- %s ---\n" title

let check label ok =
  Printf.printf "[%s] %s\n" (if ok then "PASS" else "FAIL") label;
  ok

let run_sim ?record cfg =
  let t = Runner.create ?record cfg in
  Runner.run t;
  t

let fmt_ints l = "{" ^ String.concat "," (List.map string_of_int l) ^ "}"

let fmt_int_array a = fmt_ints (Array.to_list a)

let fmt_uc uc =
  "("
  ^ String.concat ","
      (Array.to_list
         (Array.map (function None -> "*" | Some i -> string_of_int i) uc))
  ^ ")"

let base_workload pattern =
  {
    Workload.pattern;
    send_mean_interval = 0.8;
    basic_ckpt_mean_interval = 4.0;
    reply_probability = 0.3;
  }

let base_config ~n ~seed ~gc ~pattern ~duration =
  {
    Sim_config.default with
    n;
    seed;
    duration;
    gc;
    workload = base_workload pattern;
    sample_interval = 2.0;
  }

(* Running one workload from this process: a private scratch directory
   under the output directory, the workload itself, and its outcome
   ([result_file], plus [<workload>.spans.csv] for a traced run). *)

module Harness = Rdt_verify.Harness

(* Every file the benchmark and the processes it starts write lands under
   [out]: temporary files (the coordinator writes its transcript through
   one) go to [out/tmp] for this process and its children alike. *)
let prepare_out out =
  let tmp = Filename.concat out "tmp" in
  Harness.mkdir_p tmp;
  Filename.set_temp_dir_name tmp;
  Unix.putenv "TMPDIR" tmp

(* The node executable sits next to this one in the build tree. *)
let default_cli () =
  Filename.concat
    (Filename.dirname (Filename.dirname (Filename.dirname (Self.exe ()))))
    (Filename.concat "bin" "rdtgc_cli.exe")

(* Where [run] leaves the workload's [Report.t] for a parent process. *)
let result_file ~out workload = Filename.concat out (workload ^ ".result")

let run ~workload ~scale ~seed ~seconds ~trace ~out ~cli ~save_scenario =
  let tmp =
    Filename.concat (Filename.concat out "tmp")
      (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  Harness.rm_rf tmp;
  Harness.mkdir_p tmp;
  let spans_csv =
    if trace then Some (Filename.concat out (workload ^ ".spans.csv")) else None
  in
  let report =
    Fun.protect
      ~finally:(fun () -> Harness.rm_rf tmp)
      (fun () ->
        if Catalog.is_sim workload then
          Sim_bench.run ~workload ~scale ~seed ~seconds ~trace ~tmp ~spans_csv
        else if String.equal workload "live-tcp" then begin
          if not (Sys.file_exists cli) then
            failwith ("node executable not found: " ^ cli);
          Live_bench.run ~scale ~seed ~seconds ~tmp ~cli ~save_scenario ~spans_csv
        end
        else invalid_arg ("unknown workload " ^ workload))
  in
  Self.write_result (result_file ~out workload) (report : Report.t);
  report

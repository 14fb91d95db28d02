module Prng = Rdt_sim.Prng

type outcome = (Oracles.violation list, string) result

type 'x replay =
  | Replay of Scenario.t * 'x
  | Skip of string
  | Broken of string

type 'x arm = {
  label : string;
  attach : seed:int -> Scenario.t -> Scenario.t * 'x;
  describe : 'x -> string;
  run : 'x -> Scenario.t -> outcome;
  shrink : 'x -> oracle:string -> Scenario.t -> Scenario.t;
  corpus :
    (dir:string -> string -> (Scenario.t, string) result -> 'x replay) option;
  reproducer_files : 'x -> (string * string) list;
}

type failure = {
  run : int;
  sub_seed : int;
  scenario : Scenario.t;
  violation : Oracles.violation;
  shrunk : Scenario.t option;
}

type report = {
  runs : int;
  failures : failure list;
  corpus_replayed : int;
  corpus_failed : int;
}

let passed r = List.is_empty r.failures && r.corpus_failed = 0

(* Output discipline: every logged line is a pure function of the
   arguments (seeds, scenarios, verdicts) — no timestamps, no absolute
   paths — so a campaign's output is byte-reproducible. *)

let first_line s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

let verdict = function
  | Ok [] -> "ok"
  | Ok (v :: _) -> Printf.sprintf "VIOLATION(%s@%d)" v.Oracles.oracle v.op
  | Error msg -> Printf.sprintf "RUN-FAILED(%s)" (first_line msg)

let run_failed_oracle = "live-run"

let first_violation = function
  | Ok [] -> None
  | Ok (v :: _) -> Some v
  | Error msg ->
    Some
      { Oracles.oracle = run_failed_oracle; op = -1; detail = first_line msg }

let fails_with ~oracle = function
  | Error _ -> String.equal oracle run_failed_oracle
  | Ok vs ->
    List.exists (fun (v : Oracles.violation) -> String.equal v.oracle oracle) vs

(* --- the harness arm ---------------------------------------------------- *)

let harness ?mutate_lgc ?scratch_dir () =
  let run () sc =
    Ok (Harness.run ?mutate_lgc ?scratch_dir sc).Harness.violations
  in
  {
    label = "campaign";
    attach = (fun ~seed:_ sc -> (sc, ()));
    describe = (fun () -> "");
    run;
    shrink =
      (fun () ~oracle sc ->
        Shrink.minimize_with
          ~check:(fun c -> fails_with ~oracle (run () c))
          sc);
    corpus =
      Some
        (fun ~dir:_ _ -> function
          | Ok sc -> Replay (sc, ())
          | Error e -> Broken (Printf.sprintf "unreadable (%s)" e));
    reproducer_files = (fun () -> []);
  }

(* --- the driver --------------------------------------------------------- *)

let replay_corpus (arm : _ arm) entry ~log dir =
  if not (Sys.file_exists dir) then (0, 0)
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.fold_left
         (fun (seen, failed) file ->
           let say what = log (Printf.sprintf "corpus %s: %s" file what) in
           match entry ~dir file (Scenario.load (Filename.concat dir file)) with
           | Skip why ->
             say why;
             (seen, failed)
           | Broken why ->
             say why;
             (seen + 1, failed + 1)
           | Replay (sc, x) ->
             let outcome = arm.run x sc in
             say (verdict outcome);
             ( seen + 1,
               if Option.is_none (first_violation outcome) then failed
               else failed + 1 ))
         (0, 0)

let save_reproducer (arm : _ arm) x ~log ~dir ~sub_seed sc shrunk =
  Harness.mkdir_p dir;
  let base = Printf.sprintf "seed-%x" sub_seed in
  let write (ext, contents) =
    Out_channel.with_open_text
      (Filename.concat dir (base ^ ext))
      (fun oc -> output_string oc contents);
    base ^ ext
  in
  let files = (".scn", Scenario.to_string sc) :: arm.reproducer_files x in
  log ("saved " ^ String.concat " and " (List.map write files));
  Option.iter
    (fun m -> log ("saved " ^ write (".min.scn", Scenario.to_string m)))
    shrunk

let campaign ?(shrink = true) ?corpus ?(log = fun _ -> ()) ~seed ~runs
    ~max_procs (arm : _ arm) =
  let corpus_replayed, corpus_failed =
    match (corpus, arm.corpus) with
    | Some dir, Some entry -> replay_corpus arm entry ~log dir
    | _ -> (0, 0)
  in
  let root = Prng.create ~seed in
  let failures = ref [] in
  for run = 0 to runs - 1 do
    let sub_seed = Int64.to_int (Prng.bits64 root) land max_int in
    let sc, x =
      arm.attach ~seed:sub_seed
        (Scenario.generate ~seed:sub_seed ~max_procs ())
    in
    let outcome = arm.run x sc in
    log
      (Printf.sprintf "run %04d %s%s: %s" run (Fmt.str "%a" Scenario.pp sc)
         (arm.describe x) (verdict outcome));
    match first_violation outcome with
    | None -> ()
    | Some violation ->
      let shrunk =
        if shrink then begin
          let min_sc = arm.shrink x ~oracle:violation.Oracles.oracle sc in
          log
            (Printf.sprintf "shrunk 0x%x: %d ops, %d procs (from %d ops, %d \
                             procs)"
               sub_seed (Scenario.op_count min_sc) min_sc.Scenario.n
               (Scenario.op_count sc) sc.Scenario.n);
          Some min_sc
        end
        else None
      in
      Option.iter
        (fun dir -> save_reproducer arm x ~log ~dir ~sub_seed sc shrunk)
        corpus;
      failures :=
        { run; sub_seed; scenario = sc; violation; shrunk } :: !failures
  done;
  let report =
    { runs; failures = List.rev !failures; corpus_replayed; corpus_failed }
  in
  log
    (Printf.sprintf "%s: %d runs, %d failures%s" arm.label runs
       (List.length report.failures)
       (if corpus_replayed > 0 then
          Printf.sprintf ", corpus %d/%d ok" (corpus_replayed - corpus_failed)
            corpus_replayed
        else ""));
  report

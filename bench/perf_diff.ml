(* Perf-regression diff over two BENCH_micro.json files (the committed
   baseline vs a fresh run) — the `make perf` backend.

   The reader is deliberately specialized to the flat one-benchmark-per-
   line layout Micro.write_json emits (rdtgc-bench-micro/1 through /4;
   schema 1 files have no allocation fields, and /3 and /4 carry the
   whole-run events_per_sec field): this keeps the harness free of a JSON
   dependency while staying robust to field reordering within a line.

   Policy:
   - *structural* mismatches are fatal (exit 1): a schema-version change
     or a different benchmark group set means the two files are not
     comparable at all — a silent pass here is how a renamed or dropped
     group escapes regression tracking, so the baseline must be
     regenerated deliberately, in the same commit as the change;
   - *measurements* are non-fatal, so CI can run on every push without
     flaking on shared-runner noise:
     - WARN when ns_per_run regresses by more than 20%;
     - WARN on any steady-state allocation growth beyond jitter
       (allocs_per_run more than [alloc_jitter] words above baseline);
     - improvements are reported as INFO lines so the trajectory is
       visible in the CI log;
   - a row whose time regression fits poorly (r_square below [r2_floor]
     in either file) is not gated on time: its ns/run and throughput
     comparisons are replaced by one INFO line, because an
     estimate the fit does not explain moves by more than the 20%
     threshold from run to run.  Its allocation check still applies (r²
     describes the time fit only), and every derived figure computed
     from such a row is labelled as resting on an ungated row. *)

let ns_regression_threshold = 0.20
let alloc_jitter = 8.0 (* words/run; OLS slope noise on a quiet run *)
let r2_floor = 0.30

(* derived figures of the JSON's "derived" object, and the name prefixes
   of the rows each is computed from (Micro.run) *)
let derived_sources =
  [
    ( "ccp_incremental_speedup",
      [ "ccp/full-rebuild"; "ccp/incremental-append" ] );
  ]

type bench = {
  name : string;
  ns : float option;
  r2 : float option;
  allocs : float option;
  ev_s : float option;  (* whole-run rows only *)
}

(* --- minimal reader for our own writer's output ------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* [string_field line {|"name"|}] / [number_field line {|"ns_per_run"|}]:
   pull a field out of one benchmark line; numbers may be [null]. *)
let after_key line key =
  let rec find i =
    if i + String.length key > String.length line then None
    else if String.sub line i (String.length key) = key then
      (* skip past the key, the colon and any blanks *)
      let j = ref (i + String.length key) in
      while
        !j < String.length line && (line.[!j] = ':' || line.[!j] = ' ')
      do
        incr j
      done;
      Some !j
    else find (i + 1)
  in
  find 0

let string_field line key =
  match after_key line key with
  | Some j when j < String.length line && line.[j] = '"' -> (
    match String.index_from_opt line (j + 1) '"' with
    | Some k -> Some (String.sub line (j + 1) (k - j - 1))
    | None -> None)
  | Some _ | None -> None

let number_field line key =
  match after_key line key with
  | None -> None
  | Some j ->
    let k = ref j in
    while
      !k < String.length line
      && (match line.[!k] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr k
    done;
    if !k = j then None (* null or malformed *)
    else float_of_string_opt (String.sub line j (!k - j))

let parse path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         match string_field line "\"name\"" with
         | Some name ->
           Some
             {
               name;
               ns = number_field line "\"ns_per_run\"";
               r2 = number_field line "\"r_square\"";
               allocs = number_field line "\"allocs_per_run\"";
               ev_s = number_field line "\"events_per_sec\"";
             }
         | None -> None)

let schema_of path =
  String.split_on_char '\n' (read_file path)
  |> List.find_map (fun line -> string_field line "\"schema\"")

(* the group of a benchmark is its name up to the first '/': the JSON's
   coarse table of contents ("engine", "ccp", "store", ...) *)
let group_of name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

let groups_of benches =
  List.sort_uniq compare (List.map (fun b -> group_of b.name) benches)

(* --- comparison -------------------------------------------------------- *)

let pct_change ~from ~to_ = (to_ -. from) /. from *. 100.0

let below_floor = function Some r -> r < r2_floor | None -> false

let show_r2 = function Some r -> Printf.sprintf "%.2f" r | None -> "n/a"

(* The report lines of comparing [current] against [baseline], and the
   number of structural mismatches among them. *)
let compare_files ~baseline ~current =
  let lines = ref [] in
  let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let base = parse baseline and cur = parse current in
  if base = [] then
    say "perf-diff: no benchmarks in baseline %s (nothing to do)" baseline;
  (* structural comparability gate — fatal, unlike the measurement diffs
     below: schema or group-set drift means the baseline must be
     regenerated in the same commit as the change that caused it *)
  let fatal = ref 0 in
  let bs = schema_of baseline and cs = schema_of current in
  if bs <> cs then begin
    incr fatal;
    let show = function Some s -> s | None -> "(missing)" in
    say "ERROR schema mismatch: baseline %s, current %s" (show bs) (show cs)
  end;
  let bg = groups_of base and cg = groups_of cur in
  if bg <> cg then begin
    incr fatal;
    let show gs = String.concat ", " gs in
    say "ERROR benchmark group set changed: baseline {%s}, current {%s}"
      (show bg) (show cg);
    List.iter
      (fun g ->
        if not (List.mem g cg) then
          say "  group %S disappeared from the current run" g)
      bg;
    List.iter
      (fun g ->
        if not (List.mem g bg) then
          say "  group %S is new — regenerate and commit the baseline" g)
      cg
  end;
  let warnings = ref 0 in
  let missing = ref 0 in
  let ungated = ref [] in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.name = b.name) cur with
      | None -> incr missing
      | Some c ->
        if below_floor b.r2 || below_floor c.r2 then begin
          ungated := b.name :: !ungated;
          say "INFO %-42s not gated (r² %s -> %s, floor %.2f)" b.name
            (show_r2 b.r2) (show_r2 c.r2) r2_floor
        end
        else begin
          (match (b.ns, c.ns) with
          | Some bn, Some cn when bn > 0.0 ->
            let change = pct_change ~from:bn ~to_:cn in
            if change > ns_regression_threshold *. 100.0 then begin
              incr warnings;
              say "WARN %-42s ns/run %+.1f%% (%.1f -> %.1f)" b.name change bn
                cn
            end
            else if change < -.(ns_regression_threshold *. 100.0) then
              say "INFO %-42s ns/run %+.1f%% (%.1f -> %.1f)" b.name change bn
                cn
          | _ -> ());
          match (b.ev_s, c.ev_s) with
          | Some be, Some ce
            when be > 0.0 && ce < be *. (1.0 -. ns_regression_threshold) ->
            (* already implied by the ns WARN for the same row, so INFO *)
            say "INFO %-42s throughput: %.0f -> %.0f events/s" b.name be ce
          | _ -> ()
        end;
        match (b.allocs, c.allocs) with
        | Some ba, Some ca when ca > ba +. alloc_jitter ->
          incr warnings;
          say "WARN %-42s allocation growth: %.1f -> %.1f words/run" b.name ba
            ca
        | _ -> ())
    base;
  List.iter
    (fun (figure, prefixes) ->
      let feeds name =
        List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
      in
      match List.filter feeds (List.rev !ungated) with
      | [] -> ()
      | rows ->
        say "INFO derived %s rests on ungated row(s): %s" figure
          (String.concat ", " rows))
    derived_sources;
  if !missing > 0 then
    say "perf-diff: %d baseline benchmark(s) absent from the current run"
      !missing;
  if !warnings = 0 then say "perf-diff: no regressions vs %s" baseline
  else
    say
      "perf-diff: %d warning(s) vs %s (>%.0f%% ns regression or >%.0f \
       words/run allocation growth)"
      !warnings baseline
      (ns_regression_threshold *. 100.0)
      alloc_jitter;
  if !fatal > 0 then
    say
      "perf-diff: FAILED — %d structural mismatch(es); regenerate the \
       baseline (`make micro` and commit BENCH_micro.json) alongside \
       the change"
      !fatal;
  (List.rev !lines, !fatal)

let run ~baseline ~current =
  let lines, fatal = compare_files ~baseline ~current in
  List.iter print_endline lines;
  if fatal > 0 then exit 1

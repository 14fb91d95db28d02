(* The live arm of the fuzz campaign driver ({!Rdt_verify.Fuzz}): random
   scenarios under random nemesis schedules against a whole cluster
   (simulator-backed or real TCP processes), black-box checked, failures
   shrunk and saved as (seed, scenario, nemesis) reproducers.

   Output discipline (Sim backend): verdicts are a pure function of the
   scenario and schedule — no timestamps, no absolute paths, no
   wall-clock-dependent verdicts — so a campaign's output is
   byte-reproducible (pinned by a test). *)

module Nemesis = Rdt_transport.Nemesis
module Scenario = Rdt_verify.Scenario
module Harness = Rdt_verify.Harness
module Shrink = Rdt_verify.Shrink
module Fuzz = Rdt_verify.Fuzz

type backend = Sim | Live of Cluster.backend

(* The live cluster always runs real durable stores (respawn recovers
   from disk) and has no hook to crash a store mid-mutation, so
   generated scenarios are forced onto that configuration. *)
let sanitize sc =
  Scenario.normalize { sc with Scenario.durable = true; store_fault = None }

let run_one ~backend ~root ?timeout ~nemesis sc =
  let result =
    match backend with
    | Sim -> Sim_cluster.run ~scenario:sc ~root ~nemesis ()
    | Live be ->
      Cluster.run ~scenario:sc ~root ~backend:be ?timeout ~nemesis ()
  in
  match result with
  | Error msg -> Error msg
  | Ok record ->
    let scratch = root ^ ".replay" in
    let c = Checker.check ~record ~root ~scratch_dir:scratch () in
    Ok c.Checker.violations

(* --- shrinking ---------------------------------------------------------- *)

let sim_shrink_budget = 300
let live_shrink_budget = 40

let shrink_failure ~backend ~run_root ?timeout ~nemesis ~oracle sc =
  let check b cand =
    Fuzz.fails_with ~oracle
      (run_one ~backend:b ~root:run_root ?timeout ~nemesis cand)
  in
  match backend with
  | Sim -> Shrink.minimize_with ~budget:sim_shrink_budget ~check:(check Sim) sc
  | Live _ ->
    (* every shrink candidate is a full cluster run: prefer the
       in-process simulator arm when it reproduces the failure, and
       only pay for live candidate runs — on a tight budget — when the
       failure is live-only *)
    if check Sim sc then
      Shrink.minimize_with ~budget:sim_shrink_budget ~check:(check Sim) sc
    else
      Shrink.minimize_with ~budget:live_shrink_budget ~check:(check backend)
        sc

(* --- corpus ------------------------------------------------------------- *)

(* a committed scenario's fault schedule sits in a sibling [.nms] file;
   [x.min.scn] falls back to [x.nms], and no sibling means a
   transparent nemesis *)
let nemesis_for dir scn_file =
  let base = Filename.chop_suffix scn_file ".scn" in
  let cand = Filename.concat dir (base ^ ".nms") in
  let cand =
    if Sys.file_exists cand || not (Filename.check_suffix base ".min") then
      cand
    else Filename.concat dir (Filename.chop_suffix base ".min" ^ ".nms")
  in
  if not (Sys.file_exists cand) then Ok Nemesis.default
  else
    match In_channel.with_open_text cand In_channel.input_line with
    | line -> Nemesis.of_string (Option.value line ~default:"")
    | exception Sys_error e -> Error e

let corpus_entry ~dir file loaded =
  let broken what e =
    Fuzz.Broken
      (Fuzz.verdict (Error (Printf.sprintf "unreadable %s (%s)" what e)))
  in
  match loaded with
  (* a corpus directory may also hold reproducers for the store-fault
     fuzz harness; the live cluster has no hook to crash a store
     mid-mutation, so those cannot be replayed here *)
  | Ok sc when Option.is_some sc.Scenario.store_fault || not sc.durable ->
    Fuzz.Skip "skipped (not live-representable)"
  | Error e -> broken "scenario" e
  | Ok sc -> begin
    match nemesis_for dir file with
    | Error e -> broken "nemesis" e
    | Ok nemesis -> Fuzz.Replay (sc, nemesis)
  end

(* --- the arm ------------------------------------------------------------ *)

(* node processes read the variable when they are created, so it covers
   in-process simulator nodes and exec'd ones alike *)
let with_dup_deliver f =
  Unix.putenv "RDTGC_TEST_DUP_DELIVER" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "RDTGC_TEST_DUP_DELIVER" "") f

let arm ?timeout ?(mutate_deliver = false) ~backend ~root () =
  Harness.rm_rf root;
  Harness.mkdir_p root;
  let run_root = Filename.concat root "run" in
  let mutated f = if mutate_deliver then with_dup_deliver f else f () in
  {
    Fuzz.label = "live campaign";
    attach =
      (fun ~seed sc ->
        let sc = sanitize sc in
        (sc, Nemesis.gen ~seed ~n:sc.Scenario.n));
    describe =
      (fun nemesis -> Format.asprintf " nemesis[%a]" Nemesis.pp nemesis);
    run =
      (fun nemesis sc ->
        mutated (fun () ->
            run_one ~backend ~root:run_root ?timeout ~nemesis sc));
    shrink =
      (fun nemesis ~oracle sc ->
        mutated (fun () ->
            shrink_failure ~backend ~run_root ?timeout ~nemesis ~oracle sc));
    (* committed reproducers would "fail" by design under the mutation *)
    corpus = (if mutate_deliver then None else Some corpus_entry);
    (* the shrunk [.min.scn] finds this schedule through [nemesis_for]'s
       fallback *)
    reproducer_files =
      (fun nemesis -> [ (".nms", Nemesis.to_string nemesis ^ "\n") ]);
  }

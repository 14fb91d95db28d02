(* The black-box checker: hold a live cluster run against the simulator.

   A {!Coordinator.run_record} is everything the coordinator observed —
   per-op protocol states, the mirrored transcript, recovery reports —
   plus the store directories the nodes left behind.  The checker replays
   the same scenario through {!Rdt_verify.Harness} (real middleware, the
   full oracle battery at every op) and, via the harness's [observe]
   hook, compares the live observations against the replayed script
   state op by op.  Afterwards it compares transcripts, recovery
   reports, and finally recovers every node's durable store directory
   and holds the recovered entry set against the replayed script's
   retained set.

   The state contract covers protocol state — DV, UC view, retained
   indices, application counter — not process-lifetime bookkeeping
   (basic/forced counts, store peak statistics), which a respawn
   legitimately resets. *)

module Wire = Rdt_transport.Wire
module Scenario = Rdt_verify.Scenario
module Oracles = Rdt_verify.Oracles
module Harness = Rdt_verify.Harness
module Script = Rdt_scenarios.Script
module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Process_stack = Rdt_recovery.Process_stack

type result = {
  violations : Oracles.violation list;  (** empty = the live run checks out *)
}

let uc_eq (a : int option array) b =
  Array.length a = Array.length b && Array.for_all2 (Option.equal Int.equal) a b

let pp_int_array ppf a =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int a)))

let pp_uc ppf a =
  Format.fprintf ppf "[%s]"
    (String.concat ";"
       (Array.to_list
          (Array.map (function None -> "-" | Some i -> string_of_int i) a)))

let state_mismatches ~op ~pid (live : Wire.state) script =
  let v name detail = { Oracles.oracle = "live-state"; op; detail =
      Printf.sprintf "pid %d %s: %s" pid name detail } in
  let acc = ref [] in
  let script_dv = Script.dv script pid in
  if not (Oracles.int_array_eq live.Wire.st_dv script_dv) then
    acc := v "dv" (Format.asprintf "live %a, replay %a"
                     pp_int_array live.Wire.st_dv pp_int_array script_dv)
          :: !acc;
  let script_uc = Script.uc script pid in
  if not (uc_eq live.Wire.st_uc script_uc) then
    acc := v "uc" (Format.asprintf "live %a, replay %a"
                     pp_uc live.Wire.st_uc pp_uc script_uc)
          :: !acc;
  let script_retained = Array.of_list (Script.retained script pid) in
  if not (Oracles.int_array_eq live.Wire.st_retained script_retained) then
    acc := v "retained" (Format.asprintf "live %a, replay %a"
                           pp_int_array live.Wire.st_retained
                           pp_int_array script_retained)
          :: !acc;
  let script_app = Middleware.app_state (Script.middleware script pid) in
  if live.Wire.st_app <> script_app then
    acc := v "app" (Printf.sprintf "live %d, replay %d"
                      live.Wire.st_app script_app)
          :: !acc;
  List.rev !acc

let check_reports (live : Rdt_recovery.Session.report list) replayed =
  let pp = Rdt_recovery.Session.pp_report in
  if List.length live <> List.length replayed then
    [ { Oracles.oracle = "live-report"; op = -1;
        detail = Printf.sprintf "%d live recovery reports, %d replayed"
            (List.length live) (List.length replayed) } ]
  else
    List.concat
      (List.mapi
         (fun i (l, r) ->
           if
             List.equal Int.equal l.Rdt_recovery.Session.faulty
               r.Rdt_recovery.Session.faulty
             && Oracles.int_array_eq l.Rdt_recovery.Session.line
                  r.Rdt_recovery.Session.line
             && List.equal Int.equal l.Rdt_recovery.Session.rolled_back
                  r.Rdt_recovery.Session.rolled_back
             && l.Rdt_recovery.Session.checkpoints_rolled_back
                = r.Rdt_recovery.Session.checkpoints_rolled_back
           then []
           else
             [ { Oracles.oracle = "live-report"; op = -1;
                 detail = Format.asprintf "session %d: live %a, replay %a"
                     i pp l pp r } ])
         (List.combine live replayed))

let check_stores ~root ~n script =
  List.concat
    (List.init n (fun pid ->
         let recovered =
           Process_stack.recovered ~config:Harness.log_config ~pid
             ~dir:(Filename.concat (Sim_cluster.node_dir root pid) "store")
         in
         let expected = Stable_store.retained (Script.store script pid) in
         if Harness.set_eq recovered expected then []
         else
           [ { Oracles.oracle = "live-durability"; op = -1;
               detail = Printf.sprintf
                   "pid %d: store dir recovered {%s}, replay retains {%s}"
                   pid (Harness.pp_ints recovered)
                   (Harness.pp_ints expected) } ]))

let check ~record ~root ?scratch_dir () =
  let sc = record.Coordinator.rr_scenario in
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun (o : Coordinator.observation) ->
      Hashtbl.replace by_op o.Coordinator.obs_op o.Coordinator.obs_states)
    record.Coordinator.rr_observations;
  let observe ~op script =
    match Hashtbl.find_opt by_op op with
    | None -> []
    | Some states ->
      List.concat_map
        (fun (pid, live) -> state_mismatches ~op ~pid live script)
        states
  in
  let replay = Harness.run ?scratch_dir ~observe sc in
  let tail =
    if not (List.is_empty replay.Harness.violations) then []
    else
      match replay.Harness.script with
      | None -> [ { Oracles.oracle = "live-replay"; op = -1;
                    detail = "replay produced no script" } ]
      | Some script ->
        let trace_viol =
          let replayed = Rdt_ccp.Trace.to_string (Script.trace script) in
          if String.equal record.Coordinator.rr_trace replayed then []
          else
            [ { Oracles.oracle = "live-trace"; op = -1;
                detail = "live transcript differs from replayed trace" } ]
        in
        trace_viol
        @ check_reports record.Coordinator.rr_reports replay.Harness.reports
        @ check_stores ~root ~n:sc.Scenario.n script
  in
  { violations = replay.Harness.violations @ tail }

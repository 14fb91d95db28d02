module Prng = Rdt_sim.Prng
module Script = Rdt_scenarios.Script
module Ccp = Rdt_ccp.Ccp
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Stable_store = Rdt_storage.Stable_store
module Log_store = Rdt_store.Log_store
module Fault = Rdt_store.Fault
module Process_stack = Rdt_recovery.Process_stack

type stop = Completed | Store_crashed of { pid : int; at_op : int }

type result = {
  scenario : Scenario.t;
  violations : Oracles.violation list;
  stop : stop;
  script : Script.t option;
  reports : Rdt_recovery.Session.report list;
}

(* --- filesystem scratch ------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p = Log_store.mkdir_p

let default_scratch () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    ("rdtgc-fuzz-" ^ string_of_int (Unix.getpid ()))

(* --- durable stores ---------------------------------------------------- *)

(* Small segments and eager fsync: compaction and recovery paths get
   exercised by scenario-sized runs, and [Always] makes the crash oracle
   sharp (nothing unsynced but the record being appended). *)
let log_config =
  {
    Log_store.batch_records = 4;
    fsync = Log_store.Always;
    segment_target_bytes = 512;
    compact_min_dead_bytes = 64;
    auto_compact = true;
  }

(* Mirror of one process's live entry set, maintained in front of the
   Log_store backend: [prev]/[cur] bracket the last mutation (when an
   injected fault interrupts mutation [m], the disk must recover to one
   of the two), [ever] keeps every version ever stored per index (the
   CRC fidelity bound: whatever survives a bit flip must byte-equal some
   version that was really written — flips may drop records, including
   tombstones, but never alter one undetected). *)
type shadow = {
  mutable prev : Stable_store.entry list;
  mutable cur : Stable_store.entry list;
  ever : (int, Stable_store.entry) Hashtbl.t;
}

let wrap_backend sh (b : Stable_store.backend) : Stable_store.backend =
  let mutate keep =
    sh.prev <- sh.cur;
    sh.cur <- List.filter keep sh.cur
  in
  let other (e : Stable_store.entry) x = x.Stable_store.index <> e.index in
  {
    Stable_store.b_store =
      (fun e ->
        mutate (other e);
        sh.cur <- e :: sh.cur;
        Hashtbl.add sh.ever e.Stable_store.index e;
        b.Stable_store.b_store e);
    b_eliminate =
      (fun e ->
        mutate (other e);
        b.Stable_store.b_eliminate e);
    b_truncate_above =
      (fun ~index ->
        mutate (fun x -> x.Stable_store.index <= index);
        b.Stable_store.b_truncate_above ~index);
  }

let by_index l =
  List.sort
    (fun (a : Stable_store.entry) (b : Stable_store.entry) ->
      compare a.index b.index)
    l

let entry_eq (a : Stable_store.entry) (b : Stable_store.entry) =
  a.index = b.index && Oracles.int_array_eq a.dv b.dv && a.taken_at = b.taken_at
  && a.size_bytes = b.size_bytes && a.payload = b.payload

let set_eq a b =
  let a = by_index a and b = by_index b in
  List.length a = List.length b && List.for_all2 entry_eq a b

let ints_of l = List.map (fun (e : Stable_store.entry) -> e.index) (by_index l)
let pp_ints l = String.concat "," (List.map string_of_int (ints_of l))

(* --- the run ----------------------------------------------------------- *)

exception Stopped

let run ?(mutate_lgc = false) ?scratch_dir ?observe (scenario : Scenario.t) =
  let sc = Scenario.normalize scenario in
  if not sc.protocol.Rdt_protocols.Protocol.rdt then
    invalid_arg "Harness.run: scenario protocol does not guarantee RDT";
  let violations = ref [] in
  let stop = ref Completed in
  let executed = ref 0 in
  let reports = ref [] in
  let push vs =
    violations := !violations @ vs;
    if not (List.is_empty !violations) then raise Stopped
  in
  let root =
    match scratch_dir with Some d -> d | None -> default_scratch ()
  in
  let log_stores = Array.make sc.n None in
  let shadows = Array.make sc.n None in
  let store_of =
    if not sc.durable then None
    else begin
      rm_rf root;
      Log_store.mkdir_p root;
      Some
        (fun ~me ->
          let dir = Log_store.pid_dir root me in
          let faults =
            match sc.store_fault with
            | Some f when f.fault_pid = me ->
              Some
                (Fault.at_op ~op:f.fault_op ~kind:f.fault_kind
                   ~rng:(Prng.create ~seed:(sc.seed lxor 0x51ab)))
            | _ -> None
          in
          let ls = Log_store.create ~config:log_config ?faults ~pid:me ~dir () in
          log_stores.(me) <- Some ls;
          let sh = { prev = []; cur = []; ever = Hashtbl.create 16 } in
          shadows.(me) <- Some sh;
          Process_stack.durable_store ~me ~wrap:(wrap_backend sh) ls)
    end
  in
  (* After [Fault.Injected_crash] the faulted instance is poisoned and
     the in-memory store is ahead of the disk; reopen the directory and
     hold what recovery found against the shadow's mutation bracket. *)
  let check_store_crash ~at_op =
    let f = Option.get sc.store_fault in
    let pid = f.Scenario.fault_pid in
    let sh = Option.get shadows.(pid) in
    log_stores.(pid) <- None (* poisoned; the directory is the truth now *);
    let recovered =
      Process_stack.recovered ~config:log_config ~pid
        ~dir:(Log_store.pid_dir root pid)
    in
    stop := Store_crashed { pid; at_op };
    let vs =
      ref
        (List.filter_map
           (fun (e : Stable_store.entry) ->
             match Hashtbl.find_all sh.ever e.index with
             | [] ->
               Some
                 (Printf.sprintf
                    "p%d recovered s^%d which was never stored" pid e.index)
             | versions ->
               if List.exists (entry_eq e) versions then None
               else
                 Some
                   (Printf.sprintf
                      "p%d recovered s^%d differing from every version ever \
                       stored"
                      pid e.index))
           recovered)
    in
    (match f.fault_kind with
    | Fault.Bit_flip -> () (* a flip anywhere in the log can drop any record *)
    | Fault.Short_write | Fault.Crash_before_sync ->
      if not (set_eq recovered sh.prev || set_eq recovered sh.cur) then
        vs :=
          Printf.sprintf
            "p%d recovered {%s}, expected the interrupted mutation's bracket \
             {%s} or {%s}"
            pid (pp_ints recovered) (pp_ints sh.prev) (pp_ints sh.cur)
          :: !vs);
    push
      (List.map
         (fun detail -> { Oracles.oracle = "durability"; op = at_op; detail })
         !vs)
  in
  let finish () =
    Array.iter (Option.iter (fun ls -> try Log_store.close ls with _ -> ()))
      log_stores;
    if sc.durable then rm_rf root
  in
  Fun.protect ~finally:finish @@ fun () ->
  match
    (* store faults can fire while [Script.create] stores the initial
       checkpoints *)
    try Ok (Script.create ~knowledge:sc.knowledge ?store_of ~n:sc.n
              ~protocol:sc.protocol ~with_lgc:true ())
    with e -> Error e
  with
  | Error (Fault.Injected_crash _) ->
    (try check_store_crash ~at_op:0 with Stopped -> ());
    { scenario = sc; violations = !violations; stop = !stop; script = None;
      reports = [] }
  | Error e -> raise e
  | Ok script ->
    if mutate_lgc then
      for pid = 0 to sc.n - 1 do
        match Script.collector script pid with
        | Some lgc -> Rdt_lgc.set_test_overcollect lgc true
        | None -> ()
      done;
    let incr = Ccp.Incremental.of_trace (Script.trace script) in
    let exact () =
      (match sc.knowledge with `Causal -> true | `Global -> false)
      || Script.crash_count script = 0
    in
    let quiescent i =
      push
        (Oracles.quiescent ~stack:(Script.stack script)
           ~ccp:(Ccp.Incremental.ccp incr)
           ~exact:(exact ()) ~op:i)
    in
    let deep i =
      push
        (Oracles.deep ~stack:(Script.stack script)
           ~ccp:(Ccp.Incremental.ccp incr) ~op:i)
    in
    let execute i (op : Scenario.op) =
      match op with
      | Drop _ -> ignore (Script.apply script op)
      | Crash _ ->
        let ccp_before = Ccp.of_trace (Script.trace script) in
        let report = Option.get (Script.apply script op) in
        reports := !reports @ [ report ];
        push (Oracles.crash ~ccp_before ~report ~op:i);
        quiescent i;
        deep i
      | Checkpoint _ | Send _ | Deliver _ ->
        ignore (Script.apply script op);
        quiescent i
    in
    (try
       List.iteri
         (fun i op ->
           executed := i + 1;
           try
             execute i op;
             (* differential observation point: the live-cluster checker
                compares the states it recorded against the replay here *)
             match observe with
             | Some f -> push (f ~op:i script)
             | None -> ()
           with Fault.Injected_crash _ ->
             (* the faulted process is down mid-mutation; the run ends
                here — only the durability oracles still apply *)
             check_store_crash ~at_op:i;
             raise Stopped)
         sc.ops;
       let last = List.length sc.ops in
       deep last;
       (* durable epilogue: close, reopen, and demand that recovery
          restores exactly the retained set the simulation ended with *)
       if sc.durable then
         for pid = 0 to sc.n - 1 do
           match log_stores.(pid) with
           | None -> ()
           | Some ls ->
             Log_store.close ls;
             log_stores.(pid) <- None;
             let recovered =
               Process_stack.recovered ~config:log_config ~pid
                 ~dir:(Log_store.pid_dir root pid)
             in
             let live = Stable_store.retained (Script.store script pid) in
             if not (set_eq recovered live) then
               push
                 [
                   {
                     Oracles.oracle = "durability";
                     op = last;
                     detail =
                       Printf.sprintf
                         "p%d recovered {%s} from disk but retained {%s} in \
                          memory"
                         pid (pp_ints recovered) (pp_ints live);
                   };
                 ]
         done
     with
    | Stopped -> ()
    | e ->
      violations :=
        !violations
        @ [
            {
              Oracles.oracle = "harness";
              op = !executed - 1;
              detail = Printexc.to_string e;
            };
          ]);
    {
      scenario = sc;
      violations = !violations;
      stop = !stop;
      script = Some script;
      reports = !reports;
    }

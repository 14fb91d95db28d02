(* The Process_stack seam: the one place a process's store → middleware →
   RDT-LGC stack is bootstrapped, respawned and closed.  Tested at its
   seams — the memory and durable stores must be indistinguishable to the
   layers above, a close/restore round trip must rebuild exactly what
   Algorithm 3 prescribes, and the runner must reject a stale store
   directory before any stack writes. *)

module Process_stack = Rdt_recovery.Process_stack
module Middleware = Rdt_protocols.Middleware
module Protocol = Rdt_protocols.Protocol
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Stable_store = Rdt_storage.Stable_store
module Log_store = Rdt_store.Log_store
module Dependency_vector = Rdt_causality.Dependency_vector
module Trace = Rdt_ccp.Trace
module Harness = Rdt_verify.Harness
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config

(* no fsync: these tests exercise the wiring, not the disk *)
let config = { Log_store.default_config with Log_store.fsync = Log_store.Never }

let mw_of = Process_stack.middleware
let dv_of stack = Dependency_vector.to_array (Middleware.dv (mw_of stack))

let uc_of stack =
  match Process_stack.collector stack with
  | Some lgc -> Rdt_lgc.uc_view lgc
  | None -> Alcotest.fail "stack has no collector"

let retained_of stack =
  Stable_store.retained_indices (Process_stack.store stack)

let system ~n ?ckpt_bytes ?dir () =
  let trace = Trace.create ~n in
  ( trace,
    Array.init n (fun me ->
      let log =
        Option.map
          (fun dir ->
            Log_store.create ~config ~pid:me ~dir:(Log_store.pid_dir dir me) ())
          dir
      in
      Process_stack.create ~n ~me ~protocol:Protocol.fdas ~trace ?ckpt_bytes
        ?log ~with_lgc:true ()) )

(* --- (a) memory and durable stacks are indistinguishable --------------- *)

type op = Checkpoint of int | Send of int * int | Deliver of int | Crash of int

let pp_op = function
  | Checkpoint p -> Printf.sprintf "C %d" p
  | Send (s, d) -> Printf.sprintf "S %d->%d" s d
  | Deliver k -> Printf.sprintf "D #%d" k
  | Crash p -> Printf.sprintf "X %d" p

let gen_case =
  QCheck.Gen.(
    let* n = int_range 2 4 in
    let op =
      frequency
        [
          (3, map (fun p -> Checkpoint (p mod n)) nat);
          ( 5,
            map2
              (fun s d ->
                let s = s mod n in
                Send (s, (s + 1 + (d mod (n - 1))) mod n))
              nat nat );
          (5, map (fun k -> Deliver k) nat);
          (1, map (fun p -> Crash (p mod n)) nat);
        ]
    in
    let* ops = list_size (int_range 1 60) op in
    return (n, ops))

let arb_case =
  QCheck.make gen_case ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d: %s" n (String.concat "; " (List.map pp_op ops)))

(* Apply one op to a system; in-flight messages live in [pending]. *)
let step stacks pending ~now = function
  | Checkpoint p -> Middleware.basic_checkpoint (mw_of stacks.(p)) ~now
  | Send (src, dst) ->
    let m = Middleware.prepare_send (mw_of stacks.(src)) ~dst ~now in
    pending := !pending @ [ (dst, m) ]
  | Deliver k -> (
    match !pending with
    | [] -> ()
    | l ->
      let k = k mod List.length l in
      let dst, m = List.nth l k in
      pending := List.filteri (fun i _ -> i <> k) l;
      Middleware.receive (mw_of stacks.(dst)) m ~now)
  | Crash p ->
    pending := [];
    ignore (Process_stack.session stacks ~faulty:[ p ] ~knowledge:`Global)

let prop_memory_equals_durable =
  QCheck.Test.make ~count:40
    ~name:"memory and durable stacks agree on DV, UC and retained set"
    arb_case (fun (n, ops) ->
      let dir = Helpers.tmp_dir () in
      let _, mem = system ~n () and _, dur = system ~n ~dir () in
      let pm = ref [] and pd = ref [] in
      Fun.protect
        ~finally:(fun () ->
          Array.iter Process_stack.close dur;
          Harness.rm_rf dir)
        (fun () ->
          List.iteri
            (fun i op ->
              let now = float_of_int (i + 1) in
              step mem pm ~now op;
              step dur pd ~now op;
              for p = 0 to n - 1 do
                let a = mem.(p) and b = dur.(p) in
                let fail what =
                  QCheck.Test.fail_reportf "after op %d (%s): p%d %s differs" i
                    (pp_op op) p what
                in
                let same_ints = List.equal Int.equal in
                if not (Array.for_all2 Int.equal (dv_of a) (dv_of b)) then
                  fail "DV";
                if
                  not
                    (Array.for_all2 (Option.equal Int.equal) (uc_of a) (uc_of b))
                then fail "UC";
                if not (same_ints (retained_of a) (retained_of b)) then
                  fail "retained set";
                match Process_stack.log_store b with
                | Some log ->
                  if not (same_ints (retained_of b) (Log_store.live_indices log))
                  then fail "on-disk live set"
                | None -> fail "durable stack without a log store"
              done)
            ops;
          true))

(* --- (b) close / restore round trip ------------------------------------- *)

let test_restore_round_trip () =
  let dir = Helpers.tmp_dir () in
  let n = 3 in
  let _, stacks = system ~n ~ckpt_bytes:4096 ~dir () in
  let mw p = mw_of stacks.(p) in
  let transfer src dst now =
    Middleware.receive (mw dst) (Middleware.prepare_send (mw src) ~dst ~now)
      ~now
  in
  let ckpt p now = Middleware.basic_checkpoint (mw p) ~now in
  transfer 1 0 1.0;
  ckpt 0 2.0;
  transfer 2 0 3.0;
  ckpt 1 4.0;
  transfer 1 0 5.0;
  ckpt 0 6.0;
  transfer 0 2 7.0;
  ckpt 0 8.0;
  transfer 2 0 9.0;
  let before = Stable_store.retained (Process_stack.store stacks.(0)) in
  Alcotest.(check bool) "p0 retains more than s^0" true
    (List.length before > 1);
  Array.iter Process_stack.close stacks;
  (* a respawn boots from its store alone, on a muted trace, as a live
     node does *)
  let trace' = Trace.create ~n in
  Trace.set_recording trace' false;
  let log = Log_store.create ~config ~pid:0 ~dir:(Log_store.pid_dir dir 0) () in
  let r =
    Process_stack.restore ~n ~me:0 ~protocol:Protocol.fdas ~trace:trace' ~log
      ~with_lgc:true ()
  in
  Fun.protect
    ~finally:(fun () ->
      Process_stack.close r;
      Harness.rm_rf dir)
    (fun () ->
      Alcotest.(check bool) "retained set unchanged" true
        (Harness.set_eq before (Stable_store.retained (Process_stack.store r)));
      let last = List.nth before (List.length before - 1) in
      let expected = Array.copy last.Stable_store.dv in
      expected.(0) <- expected.(0) + 1;
      Alcotest.(check (array int)) "DV = last checkpoint's DV, own entry +1"
        expected (dv_of r);
      Alcotest.(check bool) "UC all-None until the first rollback" true
        (Array.for_all Option.is_none (uc_of r));
      (* the recovery session's rollback (here: to the last surviving
         checkpoint, own-DV knowledge) rebuilds UC *)
      Middleware.rollback (mw_of r) ~to_index:last.Stable_store.index ~li:None;
      Alcotest.(check (option int)) "rollback rebuilds UC"
        (Some last.Stable_store.index) (uc_of r).(0);
      (* the respawned process writes checkpoints of the size it wrote
         before the crash *)
      Middleware.basic_checkpoint (mw_of r) ~now:10.0;
      let store = Process_stack.store r in
      match Stable_store.find store ~index:(Stable_store.last_index store) with
      | Some e ->
        Alcotest.(check int) "new checkpoint keeps its size" 4096
          e.Stable_store.size_bytes
      | None -> Alcotest.fail "no checkpoint after the respawn")

(* --- (c) the runner checks every directory before any stack writes ------ *)

let dir_contents d =
  if not (Sys.file_exists d) then []
  else
    Sys.readdir d |> Array.to_list |> List.sort String.compare
    |> List.map (fun f ->
           let ic = open_in_bin (Filename.concat d f) in
           let s = really_input_string ic (in_channel_length ic) in
           close_in ic;
           (f, s))

let test_runner_rejects_stale_dir () =
  let n = 4 in
  List.iter
    (fun stale ->
      let dir = Helpers.tmp_dir () in
      let log =
        Log_store.create ~config ~pid:stale ~dir:(Log_store.pid_dir dir stale) ()
      in
      Log_store.append log
        {
          Stable_store.index = 0;
          dv = Array.make n 0;
          taken_at = 0.0;
          size_bytes = 1;
          payload = 1;
        };
      Log_store.close log;
      let stale_before = dir_contents (Log_store.pid_dir dir stale) in
      let cfg =
        {
          Sim_config.default with
          Sim_config.n;
          store = Sim_config.Durable { dir; config };
        }
      in
      (match Runner.create cfg with
      | _ -> Alcotest.failf "p%d: accepted a directory holding checkpoints"
               stale
      | exception Invalid_argument _ -> ());
      for p = 0 to n - 1 do
        if p <> stale then
          Alcotest.(check int)
            (Printf.sprintf "stale p%d: nothing written into p%d" stale p)
            0
            (List.length (dir_contents (Log_store.pid_dir dir p)))
      done;
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "stale p%d left untouched" stale)
        stale_before
        (dir_contents (Log_store.pid_dir dir stale));
      Harness.rm_rf dir)
    [ 0; n - 1 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_memory_equals_durable;
    Alcotest.test_case "close/restore round trip" `Quick
      test_restore_round_trip;
    Alcotest.test_case "runner rejects a stale store dir before writing" `Quick
      test_runner_rejects_stale_dir;
  ]

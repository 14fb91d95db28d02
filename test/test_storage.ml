module S = Rdt_storage.Stable_store

let store_simple t index =
  ignore
    (S.store_from t ~index ~dv:[| index; 0 |] ~now:(float_of_int index)
       ~size_bytes:10 ~payload:(100 + index) ())

let test_store_and_find () =
  let t = S.create ~me:0 in
  store_simple t 0;
  store_simple t 1;
  Alcotest.(check bool) "mem 0" true (S.mem t ~index:0);
  Alcotest.(check bool) "mem 2" false (S.mem t ~index:2);
  match S.find t ~index:1 with
  | None -> Alcotest.fail "missing"
  | Some e ->
    Alcotest.(check int) "index" 1 e.S.index;
    Alcotest.(check (array int)) "dv copied" [| 1; 0 |] e.S.dv;
    Alcotest.(check int) "payload kept" 101 e.S.payload

let test_store_out_of_order_rejected () =
  let t = S.create ~me:0 in
  store_simple t 0;
  store_simple t 1;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       store_simple t 1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "regression rejected" true
    (try
       store_simple t 0;
       false
     with Invalid_argument _ -> true)

let test_dv_isolation () =
  let t = S.create ~me:0 in
  let dv = [| 5; 5 |] in
  ignore (S.store_from t ~index:0 ~dv ~now:0.0 ~size_bytes:1 ());
  dv.(0) <- 99;
  match S.find t ~index:0 with
  | Some e -> Alcotest.(check int) "stored copy unaffected" 5 e.S.dv.(0)
  | None -> Alcotest.fail "missing"

let test_eliminate () =
  let t = S.create ~me:0 in
  store_simple t 0;
  store_simple t 1;
  S.eliminate t ~index:0;
  Alcotest.(check (list int)) "only 1 left" [ 1 ] (S.retained_indices t);
  Alcotest.(check bool) "eliminate missing rejected" true
    (try
       S.eliminate t ~index:0;
       false
     with Invalid_argument _ -> true)

let test_truncate_above () =
  let t = S.create ~me:0 in
  List.iter (store_simple t) [ 0; 1; 2; 3; 4 ];
  let removed = S.truncate_above t ~index:2 in
  Alcotest.(check int) "two removed" 2 removed;
  Alcotest.(check (list int)) "kept prefix" [ 0; 1; 2 ] (S.retained_indices t);
  Alcotest.(check int) "idempotent" 0 (S.truncate_above t ~index:2)

let test_byte_accounting () =
  let bytes t =
    List.fold_left (fun acc (e : S.entry) -> acc + e.size_bytes) 0 (S.retained t)
  in
  let t = S.create ~me:0 in
  ignore (S.store_from t ~index:0 ~dv:[| 0 |] ~now:0.0 ~size_bytes:100 ());
  ignore (S.store_from t ~index:1 ~dv:[| 1 |] ~now:1.0 ~size_bytes:50 ());
  Alcotest.(check int) "bytes" 150 (bytes t);
  S.eliminate t ~index:0;
  Alcotest.(check int) "bytes after eliminate" 50 (bytes t)

let test_stats () =
  let t = S.create ~me:0 in
  List.iter (store_simple t) [ 0; 1; 2 ];
  S.eliminate t ~index:1;
  store_simple t 3;
  let stats = S.stats t in
  Alcotest.(check int) "stored total" 4 stats.S.stored_total;
  Alcotest.(check int) "eliminated total" 1 stats.S.eliminated_total;
  Alcotest.(check int) "peak count" 3 stats.S.peak_count;
  Alcotest.(check int) "current count" 3 (S.count t)

let test_last_index () =
  let t = S.create ~me:0 in
  Alcotest.(check int) "empty" (-1) (S.last_index t);
  store_simple t 0;
  store_simple t 1;
  Alcotest.(check int) "last" 1 (S.last_index t);
  S.eliminate t ~index:1;
  Alcotest.(check int) "after eliminating the top" 0 (S.last_index t)

let test_retained_order () =
  let t = S.create ~me:0 in
  List.iter (store_simple t) [ 0; 1; 2; 3 ];
  S.eliminate t ~index:1;
  Alcotest.(check (list int)) "ascending" [ 0; 2; 3 ]
    (List.map (fun e -> e.S.index) (S.retained t))

(* --- durability under seeded fault schedules --------------------------- *)

(* Property: a 3-process FDAS + RDT-LGC execution runs with p0's stable
   store mirrored into a log-structured on-disk store armed with a seeded
   fault plan (Fault.of_seed).  After the injected crash, reopening the
   directory must recover exactly a durable prefix of p0's checkpoint
   history — and, for the crash kinds (short write / unsynced loss) under
   fsync-per-record, exactly the acknowledged prefix, from which
   Recovery_line still finds a consistent global checkpoint. *)

module Log_store = Rdt_store.Log_store
module Fault = Rdt_store.Fault
module Middleware = Rdt_protocols.Middleware
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Global_gc = Rdt_gc.Global_gc
module Recovery_line = Rdt_recovery.Recovery_line
module Prng = Rdt_sim.Prng

type crash_run = {
  cr_dir : string;
  cr_kind : Fault.kind;
  cr_history : S.entry list list;
      (** retained sets after each acknowledged p0 store op, newest first *)
  cr_appended : S.entry list;  (** every entry ever handed to the backend *)
  cr_mws : Middleware.t array option;  (** None: crash during bootstrap *)
}

(* Run until p0's armed storage fault fires; returns what a recovery must
   be measured against. *)
let run_until_crash ~seed ~fsync =
  let n = 3 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdt_storage_prop_%d_%d" (Unix.getpid ()) seed)
  in
  Rdt_verify.Harness.rm_rf dir;
  let config = { Log_store.default_config with Log_store.fsync } in
  let faults = Fault.of_seed ~seed ~max_op:30 in
  let ls = Log_store.create ~config ~faults ~pid:0 ~dir () in
  let history = ref [ [] ] in
  let appended = ref [] in
  let crashed = ref None in
  let mws = ref None in
  (try
     let trace = Rdt_ccp.Trace.create ~n in
     let arr =
       Array.init n (fun me ->
           let store = S.create ~me in
           if me = 0 then begin
             let b = Log_store.backend ls in
             S.set_backend store
               {
                 S.b_store =
                   (fun e ->
                     appended := e :: !appended;
                     b.S.b_store e;
                     history := S.retained store :: !history);
                 b_eliminate =
                   (fun e ->
                     b.S.b_eliminate e;
                     history := S.retained store :: !history);
                 b_truncate_above =
                   (fun ~index ->
                     b.S.b_truncate_above ~index;
                     history := S.retained store :: !history);
               }
           end;
           Middleware.create ~n ~me ~protocol:Rdt_protocols.Protocol.fdas
             ~trace ~ckpt_bytes:16 ~store ())
     in
     Array.iteri
       (fun me mw ->
         let lgc =
           Rdt_lgc.create ~me ~store:(Middleware.store mw)
             ~dv:(Middleware.dv mw) ~n
         in
         Rdt_lgc.attach lgc mw)
       arr;
     mws := Some arr;
     let prng = Prng.create ~seed:(seed + 7919) in
     let step = ref 0 in
     while !crashed = None && !step < 5000 do
       incr step;
       let now = float_of_int !step in
       let src = Prng.int prng n in
       if Prng.int prng 4 = 0 then Middleware.basic_checkpoint arr.(src) ~now
       else begin
         let dst = (src + 1 + Prng.int prng (n - 1)) mod n in
         let msg = Middleware.prepare_send arr.(src) ~dst ~now in
         Middleware.receive arr.(dst) msg ~now:(now +. 0.5)
       end
     done
   with Fault.Injected_crash { op = _; kind } -> crashed := Some kind);
  match !crashed with
  | None ->
    Rdt_verify.Harness.rm_rf dir;
    QCheck.Test.fail_reportf "seed %d: fault plan never fired" seed
  | Some kind ->
    {
      cr_dir = dir;
      cr_kind = kind;
      cr_history = !history;
      cr_appended = !appended;
      cr_mws = !mws;
    }

(* Equation 2: the chosen line is consistent iff no component depends on
   another component's future — for all a <> b, DV(c_b).(a) <= line.(a). *)
let check_line_consistent snaps line =
  let n = Array.length snaps in
  let dv_of i =
    let entries = snaps.(i).Global_gc.entries in
    let last = entries.(Array.length entries - 1).S.index in
    if line.(i) > last then snaps.(i).Global_gc.live_dv
    else
      (Array.to_list entries
      |> List.find (fun (e : S.entry) -> e.S.index = line.(i)))
        .S.dv
  in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && (dv_of b).(a) > line.(a) then
        QCheck.Test.fail_reportf
          "inconsistent recovery line: DV(c_%d).(%d) = %d > line.(%d) = %d" b
          a
          (dv_of b).(a)
          a line.(a)
    done
  done

let recover_p0 run =
  let t = Log_store.create ~pid:0 ~dir:run.cr_dir () in
  let r = Log_store.recovery t in
  Log_store.close t;
  r.Log_store.recovered

let prop_crash_recovers_acknowledged_prefix =
  QCheck.Test.make ~count:40 ~name:"crash recovers the acknowledged prefix"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      (* fsync-per-record makes the durable prefix sharp: everything but
         the op that crashed *)
      let run = run_until_crash ~seed ~fsync:Log_store.Always in
      let recovered = recover_p0 run in
      (match run.cr_kind with
      | Fault.Bit_flip ->
        (* the flip may knock out any one already-written record; every
           survivor must still be a record that was really appended *)
        List.iter
          (fun (e : S.entry) ->
            if not (List.exists (fun a -> Helpers.entry_eq a e) run.cr_appended) then
              QCheck.Test.fail_reportf "seed %d: foreign entry %d recovered"
                seed e.S.index)
          recovered
      | Fault.Short_write | Fault.Crash_before_sync ->
        if not (Helpers.entries_eq recovered (List.hd run.cr_history)) then
          QCheck.Test.fail_reportf
            "seed %d (%s): recovered %d entries, expected the %d-entry \
             acknowledged prefix"
            seed
            (Fault.kind_name run.cr_kind)
            (List.length recovered)
            (List.length (List.hd run.cr_history));
        (* ... and the recovered store still supports a consistent
           recovery line for the crash of p0 *)
        (match (run.cr_mws, recovered) with
        | Some mws, _ :: _ ->
          let last = List.nth recovered (List.length recovered - 1) in
          let live_dv = Array.copy last.S.dv in
          live_dv.(0) <- live_dv.(0) + 1;
          let snaps =
            Array.init 3 (fun i ->
                if i = 0 then
                  { Global_gc.entries = Array.of_list recovered; live_dv }
                else
                  {
                    Global_gc.entries =
                      Array.of_list (S.retained (Middleware.store mws.(i)));
                    live_dv =
                      Rdt_causality.Dependency_vector.to_array
                        (Middleware.dv mws.(i));
                  })
          in
          let line = Recovery_line.from_snapshots snaps ~faulty:[ 0 ] in
          check_line_consistent snaps line
        | _ -> ()));
      Rdt_verify.Harness.rm_rf run.cr_dir;
      true)

let prop_crash_recovers_some_prefix =
  QCheck.Test.make ~count:40
    ~name:"crash recovers a durable prefix under lazy fsync"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      (* with batched writes and periodic fsync the durable prefix can be
         any sync point — but it must be *some* point of p0's history,
         never a mix of old and new records *)
      let run = run_until_crash ~seed ~fsync:(Log_store.Every 3) in
      let recovered = recover_p0 run in
      (match run.cr_kind with
      | Fault.Bit_flip ->
        List.iter
          (fun (e : S.entry) ->
            if not (List.exists (fun a -> Helpers.entry_eq a e) run.cr_appended) then
              QCheck.Test.fail_reportf "seed %d: foreign entry %d recovered"
                seed e.S.index)
          recovered
      | Fault.Short_write | Fault.Crash_before_sync ->
        if not (List.exists (Helpers.entries_eq recovered) run.cr_history) then
          QCheck.Test.fail_reportf
            "seed %d (%s): recovered set matches no point of the history"
            seed
            (Fault.kind_name run.cr_kind));
      Rdt_verify.Harness.rm_rf run.cr_dir;
      true)

let suite =
  [
    Alcotest.test_case "store and find" `Quick test_store_and_find;
    Alcotest.test_case "out-of-order rejected" `Quick
      test_store_out_of_order_rejected;
    Alcotest.test_case "dv isolation" `Quick test_dv_isolation;
    Alcotest.test_case "eliminate" `Quick test_eliminate;
    Alcotest.test_case "truncate above" `Quick test_truncate_above;
    Alcotest.test_case "byte accounting" `Quick test_byte_accounting;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "last index" `Quick test_last_index;
    Alcotest.test_case "retained order" `Quick test_retained_order;
    QCheck_alcotest.to_alcotest prop_crash_recovers_acknowledged_prefix;
    QCheck_alcotest.to_alcotest prop_crash_recovers_some_prefix;
  ]

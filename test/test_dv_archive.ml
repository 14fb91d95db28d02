module A = Rdt_storage.Dv_archive

let test_record_and_find () =
  let a = A.restore ~me:2 ~entries:[] in
  Alcotest.(check int) "empty" (-1) (A.last_index a);
  A.record a ~index:0 ~dv:[| 0; 0 |];
  A.record a ~index:1 ~dv:[| 1; 3 |];
  Alcotest.(check int) "count" 2 (A.count a);
  (match A.find a ~index:1 with
  | Some dv -> Alcotest.(check (array int)) "stored" [| 1; 3 |] dv
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "absent" true (A.find a ~index:2 = None);
  Alcotest.(check bool) "negative" true (A.find a ~index:(-1) = None)

let test_record_out_of_order () =
  let a = A.restore ~me:0 ~entries:[] in
  A.record a ~index:0 ~dv:[| 0 |];
  Alcotest.(check bool) "gap rejected" true
    (try
       A.record a ~index:2 ~dv:[| 2 |];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       A.record a ~index:0 ~dv:[| 0 |];
       false
     with Invalid_argument _ -> true)

let test_rejected_record_leaves_archive_intact () =
  let a = A.restore ~me:0 ~entries:[] in
  A.record a ~index:0 ~dv:[| 0; 5 |];
  A.record a ~index:1 ~dv:[| 1; 5 |];
  let rejected dv =
    try
      A.record a ~index:2 ~dv;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty vector" true
    (try
       A.record (A.restore ~me:1 ~entries:[]) ~index:0 ~dv:[||];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "width change" true (rejected [| 2; 5; 0 |]);
  Alcotest.(check int) "count" 2 (A.count a);
  A.record a ~index:2 ~dv:[| 2; 6 |];
  Alcotest.(check bool) "next record applies cleanly" true
    (A.find a ~index:2 = Some [| 2; 6 |]
    && A.find a ~index:1 = Some [| 1; 5 |])

let test_truncate () =
  let a = A.restore ~me:0 ~entries:[] in
  for i = 0 to 4 do
    A.record a ~index:i ~dv:[| i |]
  done;
  A.truncate_above a ~index:2;
  Alcotest.(check int) "count" 3 (A.count a);
  Alcotest.(check int) "last" 2 (A.last_index a);
  (* recording continues from the rewound point *)
  A.record a ~index:3 ~dv:[| 33 |];
  match A.find a ~index:3 with
  | Some dv -> Alcotest.(check int) "overwritten" 33 dv.(0)
  | None -> Alcotest.fail "missing"

let test_truncate_noop () =
  let a = A.restore ~me:0 ~entries:[] in
  A.record a ~index:0 ~dv:[| 0 |];
  A.truncate_above a ~index:5;
  Alcotest.(check int) "unchanged" 1 (A.count a)

let test_empty_archive () =
  let a = A.restore ~me:1 ~entries:[] in
  Alcotest.(check int) "count" 0 (A.count a);
  Alcotest.(check int) "last index" (-1) (A.last_index a);
  Alcotest.(check bool) "find 0" true (A.find a ~index:0 = None);
  Alcotest.(check bool) "find negative" true (A.find a ~index:(-1) = None);
  (* truncating an empty archive is a no-op, not an error *)
  A.truncate_above a ~index:5;
  A.truncate_above a ~index:(-1);
  Alcotest.(check int) "still empty" 0 (A.count a);
  (* the first record must be s^0 — there is no gap to leave *)
  Alcotest.(check bool) "first record must be index 0" true
    (try
       A.record a ~index:1 ~dv:[| 0; 1 |];
       false
     with Invalid_argument _ -> true);
  A.record a ~index:0 ~dv:[| 0; 0 |];
  Alcotest.(check int) "recovers after rejection" 1 (A.count a)

let test_duplicate_after_truncate () =
  (* a duplicate insert is rejected even right after a truncation put the
     cursor back onto an existing index *)
  let a = A.restore ~me:0 ~entries:[] in
  for i = 0 to 3 do
    A.record a ~index:i ~dv:[| i |]
  done;
  A.truncate_above a ~index:1;
  Alcotest.(check bool) "duplicate of surviving index rejected" true
    (try
       A.record a ~index:1 ~dv:[| 99 |];
       false
     with Invalid_argument _ -> true);
  (* the failed insert must not have clobbered the archived vector *)
  match A.find a ~index:1 with
  | Some dv -> Alcotest.(check int) "vector intact" 1 dv.(0)
  | None -> Alcotest.fail "missing"

let test_archive_after_rollback () =
  (* drive a real middleware rollback: the archive rewinds with the store
     and the re-taken interval overwrites the undone history *)
  let trace = Rdt_ccp.Trace.create ~n:2 in
  let mw =
    Rdt_protocols.Middleware.create ~n:2 ~me:0
      ~protocol:Rdt_protocols.Protocol.fdas ~trace ()
  in
  for i = 1 to 4 do
    Rdt_protocols.Middleware.basic_checkpoint mw ~now:(float_of_int i)
  done;
  let a = Rdt_protocols.Middleware.archive mw in
  Alcotest.(check int) "before rollback" 5 (A.count a);
  Rdt_protocols.Middleware.rollback mw ~to_index:2 ~li:None;
  Alcotest.(check int) "archive rewound" 3 (A.count a);
  Alcotest.(check bool) "undone vectors forgotten" true
    (A.find a ~index:3 = None && A.find a ~index:4 = None);
  (* the next checkpoint re-records index 3 with the post-rollback DV *)
  Rdt_protocols.Middleware.basic_checkpoint mw ~now:9.0;
  (match A.find a ~index:3 with
  | Some dv -> Alcotest.(check int) "re-taken interval archived" 3 dv.(0)
  | None -> Alcotest.fail "re-taken checkpoint not archived");
  Alcotest.(check int) "last index" 3 (A.last_index a)

let test_find_returns_a_copy () =
  (* the archive and the store each keep their own vectors: writing into
     what [find] returns must reach neither *)
  let trace = Rdt_ccp.Trace.create ~n:2 in
  let mw =
    Rdt_protocols.Middleware.create ~n:2 ~me:0
      ~protocol:Rdt_protocols.Protocol.fdas ~trace ()
  in
  let a = Rdt_protocols.Middleware.archive mw in
  for i = 1 to 3 do
    Rdt_protocols.Middleware.basic_checkpoint mw ~now:(float_of_int i)
  done;
  let index = 2 in
  let stored () =
    match
      Rdt_storage.Stable_store.find (Rdt_protocols.Middleware.store mw) ~index
    with
    | Some e -> Array.copy e.dv
    | None -> Alcotest.fail "checkpoint not stored"
  in
  let before = stored () in
  (match A.find a ~index with
  | Some dv -> Array.fill dv 0 (Array.length dv) 77
  | None -> Alcotest.fail "checkpoint not archived");
  Alcotest.(check (option (array int)))
    "archive unchanged" (Some before) (A.find a ~index);
  Alcotest.(check (array int)) "stored entry unchanged" before (stored ())

let test_archive_survives_row_reuse () =
  (* the store overwrites a collected checkpoint's row with the next
     checkpoint's vector; the archive's copy must not follow *)
  let module S = Rdt_storage.Stable_store in
  let module Mw = Rdt_protocols.Middleware in
  let trace = Rdt_ccp.Trace.create ~n:3 in
  let mw =
    Mw.create ~n:3 ~me:0 ~protocol:Rdt_protocols.Protocol.fdas ~trace ()
  in
  let a = Mw.archive mw in
  let taken = Hashtbl.create 8 in
  let note index =
    match S.find (Mw.store mw) ~index with
    | Some e -> Hashtbl.replace taken index e.dv
    | None -> Alcotest.fail "checkpoint not stored"
  in
  note 0;
  for index = 1 to 6 do
    Mw.basic_checkpoint mw ~now:(float_of_int index);
    note index;
    (* collect all but the last two, so every later store reuses a row *)
    if index >= 2 then S.eliminate (Mw.store mw) ~index:(index - 2)
  done;
  Gc.full_major ();
  Alcotest.(check (list int)) "store keeps the last two" [ 5; 6 ]
    (S.retained_indices (Mw.store mw));
  for index = 0 to 6 do
    Alcotest.(check (option (array int)))
      (Printf.sprintf "s^%d archived" index)
      (Some (Hashtbl.find taken index))
      (A.find a ~index)
  done

(* A scripted two-process system with RDT-LGC where p0 checkpoints
   alone; [taken] maps each of p0's checkpoint indices to the vector the
   store held for it when it was taken. *)
let lgc_script () =
  let module Script = Rdt_scenarios.Script in
  let s =
    Script.create ~n:2 ~protocol:Rdt_protocols.Protocol.fdas ~with_lgc:true ()
  in
  let taken = Hashtbl.create 16 in
  let note () =
    let store = Script.store s 0 in
    let index = Rdt_storage.Stable_store.last_index store in
    match Rdt_storage.Stable_store.find store ~index with
    | Some e -> Hashtbl.replace taken index (Array.copy e.dv)
    | None -> Alcotest.fail "last checkpoint not retained"
  in
  note ();
  let checkpoint () =
    Script.checkpoint s 0;
    note ()
  in
  (s, taken, checkpoint)

let check_archived a taken ~index =
  Alcotest.(check (option (array int)))
    (Printf.sprintf "s^%d archived" index)
    (Some (Hashtbl.find taken index))
    (A.find a ~index)

let test_archive_tracks_store () =
  (* asked for before any collection, the archive covers 0 .. last taken
     after collection removed checkpoints from the store *)
  let s, taken, checkpoint = lgc_script () in
  let mw = Rdt_scenarios.Script.middleware s 0 in
  let archive = Rdt_protocols.Middleware.archive mw in
  for _ = 1 to 5 do
    checkpoint ()
  done;
  Alcotest.(check bool) "store collected" true
    (Rdt_storage.Stable_store.count (Rdt_protocols.Middleware.store mw) < 6);
  Alcotest.(check int) "archive complete" 6 (A.count archive);
  for index = 0 to 5 do
    check_archived archive taken ~index
  done

let test_archive_asked_mid_run () =
  (* a late first call seeds the archive from the store: the vectors of
     checkpoints already collected are gone, the retained ones and every
     later one are kept *)
  let s, taken, checkpoint = lgc_script () in
  for _ = 1 to 4 do
    checkpoint ()
  done;
  let retained = Rdt_scenarios.Script.retained s 0 in
  Alcotest.(check bool) "some collected" true (List.length retained < 5);
  let mw = Rdt_scenarios.Script.middleware s 0 in
  let a = Rdt_protocols.Middleware.archive mw in
  Alcotest.(check bool) "same archive on a second call" true
    (a == Rdt_protocols.Middleware.archive mw);
  for _ = 1 to 4 do
    checkpoint ()
  done;
  Alcotest.(check int) "count" 9 (A.count a);
  for index = 0 to 8 do
    if index <= 4 && not (List.mem index retained) then
      Alcotest.(check bool)
        (Printf.sprintf "collected s^%d absent" index)
        true
        (A.find a ~index = None)
    else check_archived a taken ~index
  done

let test_rollback_before_archive () =
  (* a rollback before the first call leaves nothing to rewind: the
     archive later seeded from the store starts at the rollback target *)
  let trace = Rdt_ccp.Trace.create ~n:2 in
  let mw =
    Rdt_protocols.Middleware.create ~n:2 ~me:0
      ~protocol:Rdt_protocols.Protocol.fdas ~trace ()
  in
  for i = 1 to 4 do
    Rdt_protocols.Middleware.basic_checkpoint mw ~now:(float_of_int i)
  done;
  Rdt_protocols.Middleware.rollback mw ~to_index:2 ~li:None;
  let a = Rdt_protocols.Middleware.archive mw in
  Alcotest.(check int) "seeded up to the target" 3 (A.count a);
  Alcotest.(check bool) "undone vectors absent" true
    (A.find a ~index:3 = None && A.find a ~index:4 = None);
  Rdt_protocols.Middleware.basic_checkpoint mw ~now:9.0;
  match A.find a ~index:3 with
  | Some dv -> Alcotest.(check (array int)) "re-taken interval" [| 3; 0 |] dv
  | None -> Alcotest.fail "re-taken checkpoint not archived"

(* --- model test ----------------------------------------------------- *)

(* Random ops against a dense reference: [Some dv] per archived index,
   [None] in gaps.  [Record (m, _)] changes the own entry only (m = 0),
   some entries (1) or all of them (2); [Truncate (w, _)] cuts at 0
   (w = 0), at or just below the last multiple of 32 (1), past the end
   (2) or anywhere (3); the ints after them are seeds. *)
type op =
  | Record of int * int
  | Truncate of int * int
  | Restore of int  (* seed choosing the dropped entries *)

let print_op = function
  | Record (m, s) -> Printf.sprintf "Record (%d, %d)" m s
  | Truncate (w, s) -> Printf.sprintf "Truncate (%d, %d)" w s
  | Restore s -> Printf.sprintf "Restore %d" s

let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 160)
      (frequency
         [
           (14, map2 (fun m s -> Record (m, s)) (int_bound 2) (int_bound 999));
           (2, map2 (fun w s -> Truncate (w, s)) (int_bound 3) (int_bound 999));
           (1, map (fun s -> Restore s) (int_bound 999));
         ]))

let model_width = 5
let model_me = 2

(* Runs [ops] on an archive and on the dense reference, comparing every
   query after every op. *)
let run_model ops =
  let a = ref (A.restore ~me:model_me ~entries:[]) in
  let model = ref [||] in
  let last_present () =
    let rec go i =
      if i < 0 then Array.make model_width 0
      else match !model.(i) with Some v -> v | None -> go (i - 1)
    in
    go (Array.length !model - 1)
  in
  let agrees () =
    let len = Array.length !model in
    A.count !a = len
    && A.last_index !a = len - 1
    && List.for_all
         (fun i ->
           A.find !a ~index:i
           = if i >= 0 && i < len then !model.(i) else None)
         (List.init (len + 3) (fun i -> i - 1))
  in
  let step = function
    | Record (mode, seed) ->
      let index = Array.length !model in
      let dv = Array.copy (last_present ()) in
      (match mode with
      | 0 -> ()
      | 1 ->
        for j = 0 to model_width - 1 do
          if (seed lsr j) land 1 = 1 then dv.(j) <- dv.(j) + 1 + (seed mod 3)
        done
      | _ -> Array.iteri (fun j x -> dv.(j) <- x + 1 + ((seed + j) mod 4)) dv);
      dv.(model_me) <- index;
      A.record !a ~index ~dv;
      model := Array.append !model [| Some (Array.copy dv) |]
    | Truncate (where, seed) ->
      let last = Array.length !model - 1 in
      let index =
        match where with
        | 0 -> 0
        | 1 ->
          (* just below or on the last multiple of 32 *)
          max (-1) ((last / 32 * 32) - (seed mod 3))
        | 2 -> last + (seed mod 4)
        | _ -> (seed mod (last + 2)) - 1
      in
      A.truncate_above !a ~index;
      if index + 1 < Array.length !model then
        model := Array.sub !model 0 (max 0 (index + 1))
    | Restore seed ->
      (* keep a pseudo-random subset, as a crash keeps the retained
         checkpoints and loses the eliminated ones *)
      let keep i = (seed + (i * 7)) mod 5 <> 0 in
      let entries =
        List.filter_map
          (fun i ->
            match !model.(i) with
            | Some v when keep i -> Some (i, v)
            | _ -> None)
          (List.init (Array.length !model) Fun.id)
      in
      a := A.restore ~me:model_me ~entries;
      let len =
        match List.rev entries with [] -> 0 | (i, _) :: _ -> i + 1
      in
      model :=
        Array.init len (fun i -> if keep i then !model.(i) else None)
  in
  List.for_all
    (fun op ->
      step op;
      agrees ())
    ops

let prop_model =
  QCheck.Test.make
    ~name:"archive = dense reference under record/truncate/restore"
    ~count:150
    (QCheck.make ~print:QCheck.Print.(list print_op) gen_ops)
    run_model

(* --- building blocks ------------------------------------------------ *)

let test_vec_truncate_releases () =
  (* a rollback truncates the archive's vector of vectors: the dropped
     vectors must become collectable *)
  let v = Rdt_sim.Vec.create () in
  let w = Weak.create 2 in
  let fresh i = Array.make 4 i in
  for i = 0 to 9 do
    let x = fresh i in
    if i = 5 then Weak.set w 0 (Some x);
    Rdt_sim.Vec.push v x
  done;
  Rdt_sim.Vec.truncate v 3;
  let y = fresh 99 in
  Weak.set w 1 (Some y);
  Rdt_sim.Vec.push v y;
  Rdt_sim.Vec.clear v;
  Gc.full_major ();
  Alcotest.(check bool) "truncated element collected" false (Weak.check w 0);
  Alcotest.(check bool) "cleared element collected" false (Weak.check w 1);
  Alcotest.(check int) "empty" 0 (Rdt_sim.Vec.length v)

let suite =
  [
    Alcotest.test_case "record and find" `Quick test_record_and_find;
    Alcotest.test_case "out-of-order rejected" `Quick test_record_out_of_order;
    Alcotest.test_case "rejected record leaves archive intact" `Quick
      test_rejected_record_leaves_archive_intact;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "truncate noop" `Quick test_truncate_noop;
    Alcotest.test_case "empty archive" `Quick test_empty_archive;
    Alcotest.test_case "duplicate after truncate" `Quick
      test_duplicate_after_truncate;
    Alcotest.test_case "archive after rollback" `Quick
      test_archive_after_rollback;
    Alcotest.test_case "find hands out a copy" `Quick
      test_find_returns_a_copy;
    Alcotest.test_case "archive outlives collection" `Quick
      test_archive_tracks_store;
    Alcotest.test_case "archive first asked mid-run" `Quick
      test_archive_asked_mid_run;
    Alcotest.test_case "rollback before the first archive call" `Quick
      test_rollback_before_archive;
    QCheck_alcotest.to_alcotest prop_model;
    Alcotest.test_case "vec truncate releases dropped elements" `Quick
      test_vec_truncate_releases;
    Alcotest.test_case "archived vectors survive row reuse" `Quick
      test_archive_survives_row_reuse;
  ]

module Ccp = Rdt_ccp.Ccp
module Consistency = Rdt_ccp.Consistency
module Rdt_check = Rdt_ccp.Rdt_check
module Oracle = Rdt_gc.Oracle
module Global_gc = Rdt_gc.Global_gc
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Stable_store = Rdt_storage.Stable_store
module Process_stack = Rdt_recovery.Process_stack
module Session = Rdt_recovery.Session
module Recovery_line = Rdt_recovery.Recovery_line

type violation = { oracle : string; op : int; detail : string }
type stack = int -> Process_stack.t

let pp_violation ppf v =
  Fmt.pf ppf "%s oracle violated after op %d: %s" v.oracle v.op v.detail

let ints l = String.concat "," (List.map string_of_int l)
let sorted l = List.sort Int.compare l

let int_array_eq a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* One violation with a formatted detail. *)
let violation oracle ~op fmt =
  Printf.ksprintf (fun detail -> { oracle; op; detail }) fmt

(* The violations a check [emit]s, in emission order. *)
let collect check =
  let vs = ref [] in
  check (fun v -> vs := v :: !vs);
  List.rev !vs

let retained stack pid =
  Stable_store.retained_indices (Process_stack.store (stack pid))

(* --- per-op checks (post-event quiescence) ----------------------------- *)

(* Every check below compares collector state to ground truth at
   {e post-event quiescence}: after an operation (and its middleware and
   collector hooks) has completed entirely.  Mid-event the store may
   legitimately hold [n+1] checkpoints (a new checkpoint is stored before
   [release(me)] runs) and the UC array may be mid-update; only the
   settled state is contractual.  See DESIGN.md §11. *)

(* Safety (Theorem 4): every checkpoint the omniscient oracle still needs
   must be retained. *)
let safety ~stack ~ccp ~op =
  collect @@ fun emit ->
  for pid = 0 to Ccp.n ccp - 1 do
    let retained = retained stack pid in
    let needed = Oracle.retained ccp ~pid in
    List.iter
      (fun index ->
        if not (List.mem index retained) then
          emit
            (violation "safety" ~op
               "p%d eliminated non-obsolete s^%d (retained {%s}, oracle needs \
                {%s})"
               pid index (ints retained) (ints needed)))
      needed
  done

(* Optimality (Theorem 5): nothing identifiable as obsolete from causal
   knowledge is still stored; equality when no recovery session injected
   global knowledge. *)
let optimality ~stack ~ccp ~exact ~op =
  collect @@ fun emit ->
  let n = Ccp.n ccp in
  for pid = 0 to n - 1 do
    let snap = Session.snapshot_of (Process_stack.middleware (stack pid)) in
    let causal = Global_gc.retained snap ~li:snap.Global_gc.live_dv in
    let retained = retained stack pid in
    List.iter
      (fun index ->
        if not (List.mem index causal) then
          emit
            (violation "optimality" ~op
               "p%d still stores s^%d, collectable from causal knowledge \
                (would retain only {%s})"
               pid index (ints causal)))
      retained;
    if exact && not (List.equal Int.equal (sorted retained) (sorted causal))
    then
      emit
        (violation "optimality" ~op
           "p%d retains {%s}, causal knowledge dictates exactly {%s}" pid
           (ints retained) (ints causal))
  done

(* Space bound (Theorem 3 / Section 4.5): n at quiescence, n+1 transient
   peak. *)
let bound ~stack ~ccp ~op =
  collect @@ fun emit ->
  let n = Ccp.n ccp in
  for pid = 0 to n - 1 do
    let store = Process_stack.store (stack pid) in
    let count = Stable_store.count store in
    let peak = (Stable_store.stats store).Stable_store.peak_count in
    if count > n then
      emit
        (violation "bound" ~op
           "p%d retains %d checkpoints > n = %d at quiescence" pid count n);
    if peak > n + 1 then
      emit
        (violation "bound" ~op "p%d peaked at %d checkpoints > n + 1 = %d" pid
           peak (n + 1))
  done

(* Equation-4 invariant (Theorem 3) vs CCP ground truth: whenever
   s^last_f -> c^(gamma+1)_i and s^last_f -/-> s^gamma_i, UC.(f) of p_i
   must reference s^gamma_i.  That gamma is {!Oracle.witness}. *)
let invariant ~stack ~ccp ~op =
  collect @@ fun emit ->
  let n = Ccp.n ccp in
  for pid = 0 to n - 1 do
    match Process_stack.collector (stack pid) with
    | None -> ()
    | Some lgc ->
      for f = 0 to n - 1 do
        let gamma = Oracle.witness ccp ~pid ~f in
        if gamma >= 0 && gamma <= Ccp.last_stable ccp pid then begin
          let got = Rdt_lgc.retained_because_of lgc f in
          if not (Option.equal Int.equal got (Some gamma)) then
            emit
              (violation "invariant" ~op
                 "p%d must hold UC[%d] = s^%d, found %s" pid f gamma
                 (match got with None -> "Null" | Some g -> string_of_int g))
        end
      done
  done

(* RD-trackability (Definition 4): the protocol must have forced enough
   checkpoints.  [rdt_of] reports the first of a checker's violations. *)
let rdt_of ~op = function
  | [] -> []
  | v :: _ ->
    [
      violation "rdt" ~op "execution is not RD-trackable: %s"
        (Fmt.str "%a" Rdt_check.pp_violation v);
    ]

let rdt ~ccp ~op = rdt_of ~op (Rdt_check.violations ~limit:1 ccp)

let quiescent ~stack ~ccp ~exact ~op =
  List.concat
    [
      safety ~stack ~ccp ~op;
      optimality ~stack ~ccp ~exact ~op;
      bound ~stack ~ccp ~op;
      invariant ~stack ~ccp ~op;
    ]

(* --- deep checks (crash points and end of run) ------------------------- *)

(* Recovery-line retention: for every single-failure line (Lemma 1,
   computed from trace vector clocks — independent of the protocols'
   DVs), every stable member must still be retained and the line must be
   consistent. *)
let lines ~stack ~ccp ~op =
  collect @@ fun emit ->
  let n = Ccp.n ccp in
  for f = 0 to n - 1 do
    let line = Recovery_line.lemma1 ccp ~faulty:[ f ] in
    if not (Consistency.is_consistent ccp line) then
      emit
        (violation "line" ~op
           "lemma-1 line (%s) for faulty={%d} is inconsistent"
           (ints (Array.to_list line))
           f);
    for pid = 0 to n - 1 do
      let idx = line.(pid) in
      if
        idx <= Ccp.last_stable ccp pid
        && not (List.mem idx (retained stack pid))
      then
        emit
          (violation "line" ~op
             "p%d's s^%d lies on the recovery line for faulty={%d} but was \
              eliminated"
             pid idx f)
    done
  done

(* One zigzag sweep answers both structural checks: an RDT execution
   admits no useless (Z-cycle) checkpoints, and no violation at all. *)
let deep ~stack ~ccp ~op =
  let { Rdt_check.useless; violations } = Rdt_check.analyze ~limit:1 ccp in
  let zigzag =
    if List.is_empty useless then []
    else
      [
        violation "zigzag" ~op "useless checkpoints in an RDT execution: %s"
          (String.concat "," (List.map (Fmt.str "%a" Ccp.pp_ckpt) useless));
      ]
  in
  List.concat [ lines ~stack ~ccp ~op; zigzag; rdt_of ~op violations ]

(* --- crash differential ------------------------------------------------ *)

let crash ~ccp_before ~(report : Session.report) ~op =
  collect @@ fun emit ->
  let expected = Recovery_line.lemma1 ccp_before ~faulty:report.faulty in
  if not (int_array_eq report.line expected) then
    emit
      (violation "recovery-line" ~op
         "session line (%s) for faulty={%s} differs from lemma-1 line (%s)"
         (ints (Array.to_list report.line))
         (ints report.faulty)
         (ints (Array.to_list expected)));
  if not (Consistency.is_consistent ccp_before report.line) then
    emit
      (violation "recovery-line" ~op "session line (%s) is not consistent"
         (ints (Array.to_list report.line)))

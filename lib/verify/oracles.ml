module Script = Rdt_scenarios.Script
module Ccp = Rdt_ccp.Ccp
module Consistency = Rdt_ccp.Consistency
module Zigzag = Rdt_ccp.Zigzag
module Rdt_check = Rdt_ccp.Rdt_check
module Oracle = Rdt_gc.Oracle
module Global_gc = Rdt_gc.Global_gc
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Stable_store = Rdt_storage.Stable_store
module Session = Rdt_recovery.Session
module Recovery_line = Rdt_recovery.Recovery_line

type violation = { oracle : string; op : int; detail : string }

let pp_violation ppf v =
  Fmt.pf ppf "%s oracle violated after op %d: %s" v.oracle v.op v.detail

let ints l = String.concat "," (List.map string_of_int l)
let sorted l = List.sort Int.compare l

let int_array_eq a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* --- per-op checks (post-event quiescence) ----------------------------- *)

(* Every oracle below compares collector state to ground truth at
   {e post-event quiescence}: after an operation (and its middleware and
   collector hooks) has completed entirely.  Mid-event the store may
   legitimately hold [n+1] checkpoints (a new checkpoint is stored before
   [release(me)] runs) and the UC array may be mid-update; only the
   settled state is contractual.  See DESIGN.md §11. *)

let quiescent ~script ~ccp ~exact ~op =
  let n = Script.n script in
  let vs = ref [] in
  let add oracle fmt =
    Printf.ksprintf (fun detail -> vs := { oracle; op; detail } :: !vs) fmt
  in
  (* Safety (Theorem 4): every checkpoint the omniscient oracle still
     needs must be retained. *)
  for pid = 0 to n - 1 do
    let retained = Script.retained script pid in
    let needed = Oracle.retained ccp ~pid in
    List.iter
      (fun index ->
        if not (List.mem index retained) then
          add "safety"
            "p%d eliminated non-obsolete s^%d (retained {%s}, oracle needs \
             {%s})"
            pid index (ints retained) (ints needed))
      needed
  done;
  (* Optimality (Theorem 5): nothing identifiable as obsolete from causal
     knowledge is still stored; equality when no recovery session
     injected global knowledge. *)
  let snaps =
    Array.init n (fun pid -> Session.snapshot_of (Script.middleware script pid))
  in
  for pid = 0 to n - 1 do
    let li = snaps.(pid).Global_gc.live_dv in
    let causal = Global_gc.theorem1_retained snaps ~me:pid ~li in
    let retained = Script.retained script pid in
    List.iter
      (fun index ->
        if not (List.mem index causal) then
          add "optimality"
            "p%d still stores s^%d, collectable from causal knowledge (would \
             retain only {%s})"
            pid index (ints causal))
      retained;
    if exact && not (List.equal Int.equal (sorted retained) (sorted causal))
    then
      add "optimality"
        "p%d retains {%s}, causal knowledge dictates exactly {%s}" pid
        (ints retained) (ints causal)
  done;
  (* Space bound (Theorem 3 / Section 4.5): n at quiescence, n+1
     transient peak. *)
  for pid = 0 to n - 1 do
    let store = Script.store script pid in
    let count = Stable_store.count store in
    let peak = (Stable_store.stats store).Stable_store.peak_count in
    if count > n then
      add "bound" "p%d retains %d checkpoints > n = %d at quiescence" pid count
        n;
    if peak > n + 1 then
      add "bound" "p%d peaked at %d checkpoints > n + 1 = %d" pid peak (n + 1)
  done;
  (* Equation-4 invariant vs CCP ground truth: whenever
     s^last_f -> c^(gamma+1)_i and s^last_f -/-> s^gamma_i, UC.(f) of p_i
     must reference s^gamma_i. *)
  for pid = 0 to n - 1 do
    match Script.collector script pid with
    | None -> ()
    | Some lgc ->
      for f = 0 to n - 1 do
        let last_f = Ccp.last_stable_ckpt ccp f in
        let last_i = Ccp.last_stable ccp pid in
        let rec find gamma =
          if gamma > last_i then None
          else begin
            let c : Ccp.ckpt = { pid; index = gamma } in
            let succ : Ccp.ckpt = { pid; index = gamma + 1 } in
            if
              (not (Ccp.precedes ccp last_f c)) && Ccp.precedes ccp last_f succ
            then Some gamma
            else find (gamma + 1)
          end
        in
        match find 0 with
        | None -> ()
        | Some gamma ->
          let got = Rdt_lgc.retained_because_of lgc f in
          if not (Option.equal Int.equal got (Some gamma)) then
            add "invariant" "p%d must hold UC[%d] = s^%d, found %s" pid f gamma
              (match got with None -> "Null" | Some g -> string_of_int g)
      done
  done;
  List.rev !vs

(* --- deep checks (crash points and end of run) ------------------------- *)

let deep ~script ~ccp ~op =
  let n = Ccp.n ccp in
  let vs = ref [] in
  let add oracle fmt =
    Printf.ksprintf (fun detail -> vs := { oracle; op; detail } :: !vs) fmt
  in
  (* Recovery-line retention: for every single-failure line (Lemma 1,
     computed from trace vector clocks — independent of the protocols'
     DVs), every stable member must still be retained and the line must
     be consistent. *)
  for f = 0 to n - 1 do
    let line = Recovery_line.lemma1 ccp ~faulty:[ f ] in
    if not (Consistency.is_consistent ccp line) then
      add "line" "lemma-1 line (%s) for faulty={%d} is inconsistent"
        (ints (Array.to_list line))
        f;
    for pid = 0 to n - 1 do
      let idx = line.(pid) in
      if
        idx <= Ccp.last_stable ccp pid
        && not (List.mem idx (Script.retained script pid))
      then
        add "line"
          "p%d's s^%d lies on the recovery line for faulty={%d} but was \
           eliminated"
          pid idx f
    done
  done;
  (* Zigzag analyzer: an RDT execution admits no useless (Z-cycle)
     checkpoints. *)
  (match Zigzag.useless ccp with
  | [] -> ()
  | l ->
    add "zigzag" "useless checkpoints in an RDT execution: %s"
      (String.concat "," (List.map (Fmt.str "%a" Ccp.pp_ckpt) l)));
  (* RDT doubling (Definition 4): the protocol must have forced enough
     checkpoints. *)
  (match Rdt_check.violations ~limit:1 ccp with
  | [] -> ()
  | v :: _ ->
    add "rdt" "execution is not RD-trackable: %s"
      (Fmt.str "%a" Rdt_check.pp_violation v));
  List.rev !vs

(* --- crash differential ------------------------------------------------ *)

let crash ~ccp_before ~(report : Session.report) ~op =
  let vs = ref [] in
  let add oracle fmt =
    Printf.ksprintf (fun detail -> vs := { oracle; op; detail } :: !vs) fmt
  in
  let expected = Recovery_line.lemma1 ccp_before ~faulty:report.faulty in
  if not (int_array_eq report.line expected) then
    add "recovery-line"
      "session line (%s) for faulty={%s} differs from lemma-1 line (%s)"
      (ints (Array.to_list report.line))
      (ints report.faulty)
      (ints (Array.to_list expected));
  if not (Consistency.is_consistent ccp_before report.line) then
    add "recovery-line" "session line (%s) is not consistent"
      (ints (Array.to_list report.line));
  List.rev !vs

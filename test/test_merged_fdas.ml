(* Behavioural equivalence of the literal Algorithm 4 (merged FDAS +
   RDT-LGC) with the composed stack (generic middleware + protocol +
   collector), on hand-written and random operation sequences. *)

module Merged = Rdt_gc.Merged_fdas
module Script = Rdt_scenarios.Script
module Protocol = Rdt_protocols.Protocol
module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Prng = Rdt_sim.Prng
module Rdt_lgc = Rdt_gc.Rdt_lgc

type lockstep = {
  script : Script.t;  (* composed implementation *)
  merged : Merged.t array;  (* Algorithm 4 *)
  n : int;
}

let make n =
  {
    script = Script.create ~n ~protocol:Protocol.fdas ~with_lgc:true ();
    merged = Array.init n (fun me -> Merged.create ~n ~me);
    n;
  }

let compare_states ?(at = "") l =
  for pid = 0 to l.n - 1 do
    let ctx fmt = Printf.sprintf "%s p%d %s" at pid fmt in
    Alcotest.(check (array int))
      (ctx "dv") (Merged.dv l.merged.(pid)) (Script.dv l.script pid);
    Alcotest.(check (array (option int)))
      (ctx "uc")
      (Merged.uc_view l.merged.(pid))
      (Script.uc l.script pid);
    Alcotest.(check (list int))
      (ctx "retained")
      (Stable_store.retained_indices (Merged.store l.merged.(pid)))
      (Script.retained l.script pid);
    Alcotest.(check int)
      (ctx "forced count")
      (Merged.forced_count l.merged.(pid))
      (Script.forced_taken l.script pid)
  done

let checkpoint l pid =
  Script.checkpoint l.script pid;
  Merged.basic_checkpoint l.merged.(pid) ~now:0.0

(* send on both sides; returns the pair of in-flight messages *)
let send l ~src ~dst =
  let m_script = Script.send l.script ~src ~dst in
  let m_merged = Merged.before_send l.merged.(src) in
  (m_script, m_merged, dst)

let deliver l (m_script, m_merged, dst) =
  Script.deliver l.script m_script;
  Merged.receive l.merged.(dst) m_merged ~now:0.0

let transfer l ~src ~dst = deliver l (send l ~src ~dst)

let test_initial_state () =
  let l = make 3 in
  compare_states ~at:"init" l

let test_simple_sequence () =
  let l = make 3 in
  checkpoint l 0;
  compare_states ~at:"after ckpt" l;
  transfer l ~src:0 ~dst:1;
  compare_states ~at:"after transfer" l;
  checkpoint l 1;
  transfer l ~src:1 ~dst:2;
  compare_states ~at:"after relay" l

let test_forced_checkpoint_path () =
  let l = make 2 in
  (* p0 sends (freezing its DV), then receives fresh info: FDAS forces *)
  let out = send l ~src:0 ~dst:1 in
  checkpoint l 1;
  transfer l ~src:1 ~dst:0;
  compare_states ~at:"after forced" l;
  Alcotest.(check int) "exactly one forced" 1 (Merged.forced_count l.merged.(0));
  deliver l out;
  compare_states ~at:"after late delivery" l

let test_figure4_on_merged () =
  (* the merged implementation reproduces the Figure 4 final state too *)
  let l = make 3 in
  transfer l ~src:0 ~dst:1;
  transfer l ~src:1 ~dst:2;
  checkpoint l 1;
  checkpoint l 2;
  transfer l ~src:2 ~dst:1;
  checkpoint l 1;
  checkpoint l 1;
  checkpoint l 2;
  checkpoint l 2;
  transfer l ~src:1 ~dst:2;
  compare_states ~at:"figure4" l;
  Alcotest.(check (array int)) "p1 dv" [| 1; 4; 2 |] (Merged.dv l.merged.(1));
  Alcotest.(check (array (option int)))
    "p1 uc"
    [| Some 0; Some 3; Some 1 |]
    (Merged.uc_view l.merged.(1))

let prop_random_equivalence =
  QCheck.Test.make ~name:"Algorithm 4 = composed stack on random sequences"
    ~count:80
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 2 + Prng.int rng 4 in
      let l = make n in
      let pending = ref [] in
      for _ = 1 to 120 do
        match Prng.int rng 4 with
        | 0 -> checkpoint l (Prng.int rng n)
        | 1 | 2 ->
          let src = Prng.int rng n in
          let dst = (src + 1 + Prng.int rng (n - 1)) mod n in
          pending := send l ~src ~dst :: !pending
        | _ -> begin
          match !pending with
          | [] -> ()
          | _ ->
            let arr = Array.of_list !pending in
            let pick = Prng.int rng (Array.length arr) in
            let chosen = arr.(pick) in
            pending :=
              List.filteri (fun i _ -> i <> pick) !pending;
            deliver l chosen
        end
      done;
      compare_states ~at:"random" l;
      true)

(* RDT-LGC keeps its CCBs in a slot table that starts at 4 slots and
   doubles on demand.  Here p0 hears from one new peer between each two
   of its checkpoints (the Figure 5 pattern), so every checkpoint stays
   pinned: the table grows past its first capacity, a rollback rebuilds
   it with free slots left over, and the pattern then grows it again. *)
let test_slot_table_grows_and_rebuilds () =
  let n = 16 in
  let l = make n in
  let lgc = Option.get (Script.collector l.script 0) in
  let check_table at =
    for pid = 0 to n - 1 do
      let ctx what = Printf.sprintf "%s p%d %s" at pid what in
      let lgc = Option.get (Script.collector l.script pid) in
      let in_use = Rdt_lgc.slots_in_use lgc in
      if in_use > n + 1 then
        Alcotest.failf "%s" (ctx (Printf.sprintf "%d live slots" in_use));
      (* one live slot per retained checkpoint, each referenced by UC *)
      let referenced =
        Array.to_list (Script.uc l.script pid)
        |> List.filter_map Fun.id |> List.sort_uniq Int.compare
      in
      Alcotest.(check (list int))
        (ctx "retained = referenced") referenced
        (Script.retained l.script pid);
      Alcotest.(check int) (ctx "live slots") (List.length referenced) in_use
    done
  in
  (* peers 1..5 pin s^1..s^5, and s^6 is the last: 6 live slots *)
  for k = 1 to 5 do
    checkpoint l 0;
    transfer l ~src:k ~dst:0;
    compare_states ~at:(Printf.sprintf "pin %d" k) l;
    check_table (Printf.sprintf "pin %d" k)
  done;
  checkpoint l 0;
  compare_states ~at:"grown" l;
  check_table "grown";
  Alcotest.(check (list int)) "p0 retains" [ 1; 2; 3; 4; 5; 6 ]
    (Script.retained l.script 0);
  Alcotest.(check int) "the table doubled once" 8 (Rdt_lgc.slot_capacity lgc);
  (* decentralized rollback to s^3, whose DV knows p1 and p2 only *)
  Middleware.rollback (Script.middleware l.script 0) ~to_index:3 ~li:None;
  let uc = Array.make n None in
  uc.(0) <- Some 3;
  uc.(1) <- Some 1;
  uc.(2) <- Some 2;
  Alcotest.(check (array (option int))) "uc after rollback" uc
    (Script.uc l.script 0);
  check_table "rolled back";
  (* peers 6..15 pin s^4..s^13: 12 live slots, past the rebuilt 8 *)
  for k = 6 to n - 1 do
    Script.checkpoint l.script 0;
    Script.transfer l.script ~src:k ~dst:0;
    check_table (Printf.sprintf "re-pin %d" k)
  done;
  Alcotest.(check (list int)) "p0 retains again"
    [ 1; 2; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13 ]
    (Script.retained l.script 0);
  Alcotest.(check int) "the table doubled again" 16
    (Rdt_lgc.slot_capacity lgc);
  (* each new checkpoint now eliminates the last one: its slot is reused *)
  for _ = 1 to 50 do
    Script.checkpoint l.script 0
  done;
  check_table "steady";
  Alcotest.(check int) "eliminated slots are reused" 16
    (Rdt_lgc.slot_capacity lgc)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "simple sequence" `Quick test_simple_sequence;
    Alcotest.test_case "forced checkpoint path" `Quick
      test_forced_checkpoint_path;
    Alcotest.test_case "figure 4 on the merged implementation" `Quick
      test_figure4_on_merged;
    QCheck_alcotest.to_alcotest prop_random_equivalence;
    Alcotest.test_case "CCB slot table grows and rebuilds" `Quick
      test_slot_table_grows_and_rebuilds;
  ]

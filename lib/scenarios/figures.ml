module Trace = Rdt_ccp.Trace
module Ccp = Rdt_ccp.Ccp
module Protocol = Rdt_protocols.Protocol

(* ------------------------------------------------------------------ *)
(* Figure 1: the example CCP.                                          *)
(*                                                                     *)
(* p0: s0 --m1--> ........ s1 .. m3,m5 sends ........... (volatile)    *)
(* p1: s0 .. recv m1, send m2 .. s1 .. send m4, recv m5  (volatile)    *)
(* p2: s0 .. recv m2 .. s1 .. recv m3, recv m4 .. s2 ... (volatile)    *)
(* ------------------------------------------------------------------ *)

type figure1 = {
  ccp : Ccp.t;
  trace : Trace.t;
  m1 : int;
  m2 : int;
  m3 : int;
  m4 : int;
  m5 : int;
}

let figure1_trace ~with_m3 =
  let t = Trace.init_with_initial_checkpoints ~n:3 in
  let m1 = Trace.send t ~src:0 ~dst:1 in
  Trace.receive t ~msg_id:m1 ~src:0 ~dst:1;
  let m2 = Trace.send t ~src:1 ~dst:2 in
  Trace.checkpoint t 1 (* s1 of p1 *);
  let m4 = Trace.send t ~src:1 ~dst:2 in
  Trace.checkpoint t 0 (* s1 of p0 *);
  let m3 =
    if with_m3 then begin
      let m3 = Trace.send t ~src:0 ~dst:2 in
      Some m3
    end
    else None
  in
  let m5 = Trace.send t ~src:0 ~dst:1 in
  Trace.receive t ~msg_id:m5 ~src:0 ~dst:1;
  Trace.receive t ~msg_id:m2 ~src:1 ~dst:2;
  Trace.checkpoint t 2 (* s1 of p2 *);
  (match m3 with
  | Some m3 -> Trace.receive t ~msg_id:m3 ~src:0 ~dst:2
  | None -> ());
  Trace.receive t ~msg_id:m4 ~src:1 ~dst:2;
  Trace.checkpoint t 2 (* s2 of p2 *);
  (t, m1, m2, m3, m4, m5)

let figure1 () =
  match figure1_trace ~with_m3:true with
  | t, m1, m2, Some m3, m4, m5 ->
    { ccp = Ccp.of_trace t; trace = t; m1; m2; m3; m4; m5 }
  | _, _, _, None, _, _ -> assert false

let figure1_without_m3 () =
  let t, _, _, _, _, _ = figure1_trace ~with_m3:false in
  Ccp.of_trace t

(* ------------------------------------------------------------------ *)
(* Figure 2: ping-pong with crossing messages; without forced          *)
(* checkpoints every non-initial stable checkpoint is useless.         *)
(* ------------------------------------------------------------------ *)

type figure2 = {
  ccp : Ccp.t;
  trace : Trace.t;
  m1 : int;
  m2 : int;
  m3 : int;
  m4 : int;
}

let figure2 () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  let m1 = Trace.send t ~src:1 ~dst:0 in
  Trace.receive t ~msg_id:m1 ~src:1 ~dst:0;
  Trace.checkpoint t 0 (* s1 of p0 *);
  let m2 = Trace.send t ~src:0 ~dst:1 in
  Trace.receive t ~msg_id:m2 ~src:0 ~dst:1;
  Trace.checkpoint t 1 (* s1 of p1 *);
  let m3 = Trace.send t ~src:1 ~dst:0 in
  Trace.receive t ~msg_id:m3 ~src:1 ~dst:0;
  Trace.checkpoint t 0 (* s2 of p0 *);
  let m4 = Trace.send t ~src:0 ~dst:1 in
  Trace.receive t ~msg_id:m4 ~src:0 ~dst:1;
  { ccp = Ccp.of_trace t; trace = t; m1; m2; m3; m4 }

let figure2_with_protocol protocol =
  let s = Script.create ~n:2 ~protocol ~with_lgc:false () in
  (* same interleaving; the protocol may interleave forced checkpoints *)
  Script.transfer s ~src:1 ~dst:0;
  Script.checkpoint s 0;
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  Script.transfer s ~src:1 ~dst:0;
  Script.checkpoint s 0;
  Script.transfer s ~src:0 ~dst:1;
  s

(* ------------------------------------------------------------------ *)
(* Figure 4: the RDT-LGC execution, through real FDAS middleware with  *)
(* attached collectors.  Paper outcome (paper pids p1,p2,p3 = 0,1,2):  *)
(* s^2 of p2, s^1 and s^2 of p3 eliminated; the obsolete s^1 of p2     *)
(* stays because p2 never learns of p3's checkpoints after s^1_3.      *)
(* ------------------------------------------------------------------ *)

(* a send of message [id] delivered at once *)
let transfer id ~src ~dst =
  [ Script.Send { id; src; dst }; Script.Deliver id ]

let figure4_steps =
  [
    ("m: p0 -> p1 (p1 pins its s0 for p0)", transfer 0 ~src:0 ~dst:1);
    ("m: p1 -> p2 (p2 pins its s0 for p0,p1)", transfer 1 ~src:1 ~dst:2);
    ("p1 takes s1", [ Script.Checkpoint 1 ]);
    ("p2 takes s1", [ Script.Checkpoint 2 ]);
    ("m: p2 -> p1 (p1 pins its s1 for p2)", transfer 2 ~src:2 ~dst:1);
    ("p1 takes s2", [ Script.Checkpoint 1 ]);
    ("p1 takes s3: its s2 is collected", [ Script.Checkpoint 1 ]);
    ("p2 takes s2: its s1 is collected", [ Script.Checkpoint 2 ]);
    ("p2 takes s3: its s2 is collected", [ Script.Checkpoint 2 ]);
    ("m: p1 -> p2 (p2 pins its s3 for p1)", transfer 3 ~src:1 ~dst:2);
  ]

let figure4 ?(on_step = fun _ _ -> ()) () =
  let s = Script.create ~n:3 ~protocol:Protocol.fdas ~with_lgc:true () in
  on_step "initial checkpoints s0 stored" s;
  List.iter
    (fun (label, ops) ->
      List.iter (fun op -> ignore (Script.apply s op)) ops;
      on_step label s)
    figure4_steps;
  s

(* ------------------------------------------------------------------ *)
(* Recovery-line CCP (Figure 3's role): two rounds of a 4-process      *)
(* chain with staggered checkpoints.                                   *)
(* ------------------------------------------------------------------ *)

let recovery_ccp () =
  let t = Trace.init_with_initial_checkpoints ~n:4 in
  (* each process checkpoints right after its send, so the ring message
     it later receives lands in a fresh interval and every zigzag hop is
     causal (the pattern is RD-trackable) *)
  let round () =
    Trace.message t ~src:0 ~dst:1;
    Trace.checkpoint t 0;
    Trace.message t ~src:1 ~dst:2;
    Trace.checkpoint t 1;
    Trace.message t ~src:2 ~dst:3;
    Trace.checkpoint t 2;
    Trace.message t ~src:3 ~dst:0;
    Trace.checkpoint t 3
  in
  round ();
  round ();
  (* a final half-round so the faulty processes' last checkpoints have
     propagated unevenly *)
  Trace.message t ~src:1 ~dst:3;
  Trace.message t ~src:2 ~dst:0;
  Ccp.of_trace t

(* ------------------------------------------------------------------ *)
(* Figure 5 worst case.                                                *)
(*                                                                     *)
(* Phase k (k = 0 .. n-1): p_k sends to every other process a message  *)
(* whose only fresh content is p_k's own latest interval (its          *)
(* transitive entries are exactly what the receivers already know, by  *)
(* construction), pinning the receivers' UC entry for p_k at their     *)
(* current last checkpoint; then every process takes a checkpoint.     *)
(* After phase n-1 every process retains exactly n checkpoints:        *)
(* {0..n-1} \ {own phase} plus the last one.                           *)
(* ------------------------------------------------------------------ *)

let worst_case ~n =
  if n < 2 then invalid_arg "Figures.worst_case: n must be at least 2";
  let s = Script.create ~n ~protocol:Protocol.fdas ~with_lgc:true () in
  for k = 0 to n - 1 do
    (* all sends of the phase leave before any delivery, so receivers'
       knowledge cannot flow back within the phase *)
    let peers = List.filter (fun dst -> dst <> k) (List.init n Fun.id) in
    List.iter
      (fun dst ->
        ignore (Script.apply s (Script.Send { id = dst; src = k; dst })))
      peers;
    List.iter (fun dst -> ignore (Script.apply s (Script.Deliver dst))) peers;
    for pid = 0 to n - 1 do
      Script.checkpoint s pid
    done
  done;
  s

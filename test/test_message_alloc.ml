(* Steady-state allocation discipline of the message path (DESIGN.md
   §10).  A receive with RDT-LGC attached allocates nothing, however many
   new dependencies it brings: [link] and [release] only update the int
   arrays of the collector's CCB slot table.
   A send that copies into a supplied buffer allocates only its fixed
   records, so its allocation does not grow with the vector's width. *)

module Protocol = Rdt_protocols.Protocol
module Control = Rdt_protocols.Control
module Middleware = Rdt_protocols.Middleware
module Process_stack = Rdt_recovery.Process_stack
module Trace = Rdt_ccp.Trace

(* FDAS never forces a process that has not sent, so these receives and
   the first sends never reach a checkpoint (a store-boundary event, which
   allocates freely); the muted trace records nothing. *)
let stack_middleware ~n ~with_lgc =
  let trace = Trace.create ~n in
  let stack =
    Process_stack.create ~n ~me:0 ~protocol:Protocol.fdas ~trace ~with_lgc ()
  in
  Trace.set_recording trace false;
  Process_stack.middleware stack

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_receive_raising_many_entries () =
  let n = 64 in
  let receives = 2000 in
  let mw = stack_middleware ~n ~with_lgc:true in
  (* one reused control whose every peer entry rises on each receive:
     n - 1 new dependencies per receive, each a [release; link] *)
  let dv = Array.make n 0 in
  let msg =
    { Middleware.msg_id = 1; src = 1; control = Control.borrow ~dv ~index:0 }
  in
  let receive () =
    for j = 1 to n - 1 do
      dv.(j) <- dv.(j) + 1
    done;
    Middleware.receive mw msg ~now:0.0
  in
  receive ();
  let words =
    minor_words_during (fun () ->
        for _ = 1 to receives do
          receive ()
        done)
  in
  Alcotest.(check int) "every entry rose on every receive" (receives + 1)
    (Rdt_causality.Dependency_vector.get (Middleware.dv mw) 1);
  let per_receive = words /. float_of_int receives in
  if per_receive >= 0.1 then
    Alcotest.failf "receive with RDT-LGC, %d new dependencies: %.2f words \
                    per receive (bound 0.1)"
      (n - 1) per_receive

(* words allocated by [sends] sends of one process into one reused
   buffer *)
let send_words ~n ~sends =
  let mw = stack_middleware ~n ~with_lgc:true in
  let buf = Array.make n 0 in
  let send () =
    let m = Middleware.prepare_send ~into:buf mw ~dst:1 ~now:0.0 in
    if m.Middleware.control.Control.dv != buf then
      Alcotest.fail "prepare_send did not copy into the supplied buffer"
  in
  send ();
  minor_words_during (fun () ->
      for _ = 1 to sends do
        send ()
      done)

let test_send_into_buffer_is_width_free () =
  let sends = 1000 in
  let narrow = send_words ~n:8 ~sends in
  let wide = send_words ~n:256 ~sends in
  Alcotest.(check (float 0.0)) "same words at n=8 and n=256" narrow wide

let suite =
  [
    Alcotest.test_case "receive with RDT-LGC allocates nothing per dependency"
      `Quick test_receive_raising_many_entries;
    Alcotest.test_case "send into a supplied buffer allocates width-free"
      `Quick test_send_into_buffer_is_width_free;
  ]

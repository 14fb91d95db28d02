(* The simulator-backed cluster: every node lives in this process behind
   a {!Rdt_transport.Sim_backend} endpoint, so a whole cluster run —
   coordinator, nodes, recovery sessions — is a deterministic function of
   [(scenario, seed)].  Node directories still hold real durable stores;
   a kill drops the endpoint's mailbox (volatile state survives in the
   heap but is unreachable: respawn builds a brand-new node over the same
   directory, exactly like an OS process restart). *)

module Transport = Rdt_transport.Transport
module Sim_backend = Rdt_transport.Sim_backend
module Nemesis = Rdt_transport.Nemesis
module Harness = Rdt_verify.Harness
module Scenario = Rdt_verify.Scenario

let node_dir = Rdt_store.Log_store.pid_dir

let run ~scenario ~root ?(seed = 1) ?nemesis ?on_nemesis ?log () =
  let sc = Scenario.normalize scenario in
  let n = sc.Scenario.n in
  Harness.rm_rf root;
  Rdt_store.Log_store.mkdir_p root;
  let cluster = Sim_backend.create ~n ~seed in
  (* one nemesis wrapper per endpoint (slot n = coordinator); wrappers
     persist across respawns because the sim transport itself does *)
  let handles = Array.make (n + 1) None in
  let wrap slot tr =
    match nemesis with
    | None -> tr
    | Some cfg ->
      let h, tr = Nemesis.wrap cfg tr in
      handles.(slot) <- Some h;
      tr
  in
  let transports =
    Array.init n (fun pid -> wrap pid (Sim_backend.transport cluster ~me:pid))
  in
  let spawn pid =
    ignore
      (Node.create ~transport:transports.(pid) ~dir:(node_dir root pid) ())
  in
  let ctl =
    {
      Coordinator.kill =
        (fun pid ->
          (* frames the nemesis holds for delayed release live in the
             process being killed: a real SIGKILL loses them, so the
             simulated kill must too, or the respawned node's peers see
             zombie frames no real cluster could produce *)
          (match handles.(pid) with
          | Some h -> Nemesis.flush_held h
          | None -> ());
          Sim_backend.kill cluster ~pid);
      respawn = spawn;
    }
  in
  for pid = 0 to n - 1 do
    spawn pid
  done;
  let coord =
    wrap n (Sim_backend.transport cluster ~me:Transport.coordinator_id)
  in
  (match on_nemesis with
  | Some f -> f (List.filter_map Fun.id (Array.to_list handles))
  | None -> ());
  Coordinator.run ~transport:coord ~ctl ~scenario:sc ?log ()

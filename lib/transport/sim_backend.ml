(* Simulator-backed transport: the deterministic engine becomes one
   backend of the transport seam, so the exact node/coordinator logic
   that runs over TCP also runs inside the simulation (FoundationDB-style
   test double, SNIPPETS.md Snippet 2).  Endpoint [me] maps to engine
   process [me + 1]; the coordinator (-1) is engine process 0, so one
   engine hosts [n] nodes plus the coordinator and every frame exchange
   is an ordinary simulated message. *)

module Engine = Rdt_sim.Engine
module Network = Rdt_sim.Network

type cluster = {
  engine : Wire.frame Engine.t;
  mailboxes : Transport.Mailbox.t array;  (* engine-process indexed *)
}

let proc_of_endpoint me = me + 1
let endpoint_of_proc p = p - 1

let create ~n ~seed =
  (* FIFO, lossless, positive delay: TCP's delivery contract *)
  let net = { Network.default with fifo = true; loss_probability = 0.0 } in
  let engine = Engine.create ~n:(n + 1) ~seed ~net () in
  let mailboxes = Array.init (n + 1) (fun _ -> Transport.Mailbox.create ()) in
  Array.iteri
    (fun p mb ->
      Engine.set_receiver engine p (fun ~src frame ->
          Transport.Mailbox.deliver mb
            (Transport.Frame { src = endpoint_of_proc src; frame })))
    mailboxes;
  { engine; mailboxes }

let kill cl ~pid = Transport.Mailbox.drop cl.mailboxes.(proc_of_endpoint pid)

let transport cl ~me =
  let proc = proc_of_endpoint me in
  if proc < 0 || proc >= Array.length cl.mailboxes then
    invalid_arg "Sim_backend.transport: endpoint out of range";
  let mb = cl.mailboxes.(proc) in
  let poll ~timeout:_ =
    (* virtual time: pump the engine until this endpoint saw an event or
       the queue drained (which a waiting caller must treat as deadlock) *)
    let before = Transport.Mailbox.delivered mb in
    let rec pump () =
      if Transport.Mailbox.delivered mb > before then `Progress
      else if Engine.step cl.engine then pump ()
      else if Transport.Mailbox.delivered mb > before then `Progress
      else `Idle
    in
    pump ()
  in
  {
    Transport.me;
    now = (fun () -> Engine.now cl.engine);
    send =
      (fun ~dst frame ->
        Engine.send cl.engine ~reliable:true ~src:proc
          ~dst:(proc_of_endpoint dst) frame);
    (* frames travel unencoded through the engine: raw corrupt bytes have
       no representation here, so injected corruption is a no-op *)
    send_raw = (fun ~dst:_ _ -> ());
    connect = (fun ~dst:_ ~port:_ -> ());
    listen_port = 0;
    set_timer =
      (fun ~id ~after ->
        Engine.schedule_in cl.engine ~pin:proc ~delay:after (fun () ->
            Transport.Mailbox.deliver mb (Transport.Timer { id })));
    set_handler = (fun h -> Transport.Mailbox.set mb h);
    poll;
    close = (fun () -> ());
  }

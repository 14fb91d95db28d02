(* The local cluster launcher: every scenario process becomes a real OS
   process on loopback TCP with its own durable store directory under
   [root/p<pid>], stdout/stderr streamed to [root/p<pid>/node.log].  The
   coordinator runs in the calling process; kills are SIGKILL (volatile
   state genuinely lost, the durable log genuinely recovered).

   A node process is [s node --me .. --dir .. --coord-port ..] for the
   executable [s] of [Exec s] ({!node_main} is the entry point the
   subcommand calls).  Nodes are always exec'd, never forked: OCaml 5
   cannot fork a runtime that has started domains. *)

module Transport = Rdt_transport.Transport
module Nemesis = Rdt_transport.Nemesis
module Harness = Rdt_verify.Harness
module Scenario = Rdt_verify.Scenario

(* the executable; must route [node] to {!node_main} *)
type backend = Exec of string

let node_dir = Sim_cluster.node_dir
let log_file root pid = Filename.concat (node_dir root pid) "node.log"

(* --- node process bodies ------------------------------------------------ *)

let node_main ~me ~dir ~coord_port ?nemesis () =
  let tr = Tcp_transport.create ~me () in
  let tr =
    match nemesis with
    | None -> tr
    | Some cfg -> snd (Nemesis.wrap cfg tr)
  in
  Transport.connect tr ~dst:Transport.coordinator_id ~port:coord_port;
  Node.main ~transport:tr ~dir ()

let spawn_exec ~exe ~root ~coord_port ?nemesis pid =
  let argv =
    [
      exe; "node";
      "--me"; string_of_int pid;
      "--dir"; node_dir root pid;
      "--coord-port"; string_of_int coord_port;
    ]
    @ (match nemesis with
      | None -> []
      | Some cfg -> [ "--nemesis"; Nemesis.to_string cfg ])
  in
  let fd =
    Unix.openfile (log_file root pid) [ O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.create_process exe (Array.of_list argv) Unix.stdin fd fd)

(* --- process reaping ---------------------------------------------------- *)

let kill_process os_pid =
  (try Unix.kill os_pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] os_pid) with Unix.Unix_error _ -> ()

let reap ~deadline os_pid =
  let rec go () =
    match Unix.waitpid [ WNOHANG ] os_pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then kill_process os_pid
      else begin
        ignore (Unix.select [] [] [] 0.05);
        go ()
      end
    | _ -> ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
  in
  go ()

let log_tail root pid ~lines =
  let path = log_file root pid in
  if not (Sys.file_exists path) then ""
  else begin
    let ic = open_in path in
    let all = ref [] in
    (try
       while true do
         all := input_line ic :: !all
       done
     with End_of_file -> ());
    close_in ic;
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    String.concat "\n" (List.rev (take lines !all))
  end

(* --- the run ------------------------------------------------------------ *)

let run ~scenario ~root ~backend ?timeout ?nemesis ?on_nemesis ?log () =
  let sc = Scenario.normalize scenario in
  let n = sc.Scenario.n in
  Harness.rm_rf root;
  Rdt_store.Log_store.mkdir_p root;
  for pid = 0 to n - 1 do
    Rdt_store.Log_store.mkdir_p (node_dir root pid)
  done;
  let coord = Tcp_transport.create ~me:Transport.coordinator_id () in
  let coord, handles =
    match nemesis with
    | None -> (coord, [])
    | Some cfg ->
      let h, tr = Nemesis.wrap cfg coord in
      (tr, [ h ])
  in
  (match on_nemesis with Some f -> f handles | None -> ());
  let coord_port = Transport.listen_port coord in
  let os_pids = Array.make n 0 in
  let (Exec exe) = backend in
  let spawn pid =
    os_pids.(pid) <- spawn_exec ~exe ~root ~coord_port ?nemesis pid
  in
  let ctl =
    {
      Coordinator.kill = (fun pid -> kill_process os_pids.(pid));
      respawn = spawn;
    }
  in
  Fun.protect
    ~finally:(fun () -> Transport.close coord)
    (fun () ->
      for pid = 0 to n - 1 do
        spawn pid
      done;
      let result =
        (* a raising coordinator must not strand its nodes: they would
           wait for a shutdown that never comes *)
        try Coordinator.run ~transport:coord ~ctl ~scenario:sc ?timeout ?log ()
        with e -> Error ("coordinator raised " ^ Printexc.to_string e)
      in
      match result with
      | Ok record ->
        (* shutdown commands were acknowledged and each node exits once
           the coordinator hangs up, so hang up first (the [finally]
           close is then a no-op), then give the processes a moment to
           exit on their own before forcing the issue *)
        Transport.close coord;
        let deadline = Unix.gettimeofday () +. 5.0 in
        Array.iter (fun os_pid -> reap ~deadline os_pid) os_pids;
        Ok record
      | Error msg ->
        Array.iter kill_process os_pids;
        let tails =
          List.init n (fun pid ->
              match log_tail root pid ~lines:20 with
              | "" -> ""
              | t -> Printf.sprintf "\n--- node %d log tail ---\n%s" pid t)
        in
        Error (msg ^ String.concat "" tails))

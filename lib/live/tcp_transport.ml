(* The real-network backend: one listening socket per endpoint on
   127.0.0.1, length-prefixed CRC-framed {!Rdt_transport.Wire} frames
   over TCP, a select-based poll loop with timers.

   Socket-to-pid mapping is by transport-level preamble: every outbound
   connection starts with an [Ident] frame naming the dialing endpoint,
   and an inbound connection surfaces nothing until that preamble
   arrives.  The newest connection to a pid (dialed or identified) takes
   over sending to it, but the one it replaces stays open and readable:
   a respawned process's old socket dies on its own EOF, without a
   [Peer_down], and when two respawned processes dial each other at
   once, each may send on the link the other stopped sending on, so
   neither may close it.  Frames queued for a peer that has not
   connected yet wait in a pending queue — the coordinator never dials
   nodes, its replies ride the inbound connections. *)

module Transport = Rdt_transport.Transport
module Wire = Rdt_transport.Wire

type conn = {
  fd : Unix.file_descr;
  mutable peer : int option;  (* set by the Ident preamble *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable alive : bool;
}

type t = {
  me : int;
  listen_fd : Unix.file_descr;
  port : int;
  mailbox : Transport.Mailbox.t;
  mutable conns : conn list;
  by_peer : (int, conn) Hashtbl.t;
  pending_out : (int, Wire.frame Queue.t) Hashtbl.t;
  timers : (int, float) Hashtbl.t;  (* id -> absolute deadline *)
  mutable closed : bool;
}

let grow c need =
  let cap = Bytes.length c.rbuf in
  if c.rlen + need > cap then begin
    let cap' = max (c.rlen + need) (cap * 2) in
    let b = Bytes.create cap' in
    Bytes.blit c.rbuf 0 b 0 c.rlen;
    c.rbuf <- b
  end

let new_conn fd =
  Unix.set_nonblock fd;
  { fd; peer = None; rbuf = Bytes.create 4096; rlen = 0; alive = true }

(* --- write side -------------------------------------------------------- *)

exception Conn_dead of conn

let write_all conn bytes =
  (* Frames are small (< max_frame_bytes) and peers drain their sockets
     in every poll, so a briefly-full buffer just spins here. *)
  let len = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write conn.fd bytes !pos (len - !pos) with
    | w -> pos := !pos + w
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ conn.fd ] [] 1.0)
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
      raise (Conn_dead conn)
  done

let bury t conn ~notify =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    match conn.peer with
    (* physical equality on the mapped connection itself: find_opt's
       [Some] box is a fresh allocation, so [== Some conn] would never
       match and the death would go unreported *)
    | Some peer
      when (match Hashtbl.find_opt t.by_peer peer with
           | Some c -> c == conn
           | None -> false) ->
      Hashtbl.remove t.by_peer peer;
      if notify then
        Transport.Mailbox.deliver t.mailbox (Transport.Peer_down { peer })
    | _ -> ()
  end

let send_on t conn frame =
  try write_all conn (Wire.encode frame)
  with Conn_dead c -> bury t c ~notify:true

let send t ~dst frame =
  match Hashtbl.find_opt t.by_peer dst with
  | Some conn -> send_on t conn frame
  | None ->
    let q =
      match Hashtbl.find_opt t.pending_out dst with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.pending_out dst q;
        q
    in
    Queue.add frame q

let flush_pending t peer conn =
  match Hashtbl.find_opt t.pending_out peer with
  | None -> ()
  | Some q ->
    Hashtbl.remove t.pending_out peer;
    Queue.iter (fun frame -> send_on t conn frame) q

(* --- read side --------------------------------------------------------- *)

let identify t conn pid =
  conn.peer <- Some pid;
  Hashtbl.replace t.by_peer pid conn;
  flush_pending t pid conn

let garbled t conn error =
  Transport.Mailbox.deliver t.mailbox
    (Transport.Garbled { peer = conn.peer; error })

let drain_frames t conn =
  let again = ref true in
  while !again && conn.alive do
    again := false;
    if conn.rlen >= Wire.header_bytes then begin
      match Wire.decode_header conn.rbuf ~pos:0 ~len:conn.rlen with
      | Error (Wire.Truncated _) -> ()
      | Error e ->
        (* the length prefix itself is garbage, so the next frame
           boundary is unknowable: surface the error and drop the link *)
        garbled t conn e;
        bury t conn ~notify:true
      | Ok header ->
        let total = Wire.header_bytes + header.Wire.h_len in
        if conn.rlen >= total then begin
          let consume () =
            Bytes.blit conn.rbuf total conn.rbuf 0 (conn.rlen - total);
            conn.rlen <- conn.rlen - total;
            again := true
          in
          match
            Wire.decode_body header conn.rbuf ~pos:Wire.header_bytes
              ~len:conn.rlen
          with
          | Error e ->
            (* the header was sound, so the frame boundary is known:
               skip exactly this frame and resynchronize at the next —
               corruption costs one frame, never the whole link *)
            garbled t conn e;
            consume ()
          | Ok frame ->
            consume ();
            (match (frame, conn.peer) with
            | Wire.Ident { pid }, _ -> identify t conn pid
            | _, Some peer ->
              Transport.Mailbox.deliver t.mailbox
                (Transport.Frame { src = peer; frame })
            | _, None ->
              (* protocol violation: the preamble must come first *)
              bury t conn ~notify:false)
        end
    end
  done

let read_ready t conn =
  grow conn 4096;
  match Unix.read conn.fd conn.rbuf conn.rlen (Bytes.length conn.rbuf - conn.rlen) with
  | 0 ->
    if conn.rlen > 0 then begin
      (* the peer hung up mid-frame: those bytes can never decode *)
      let wanted =
        match Wire.decode_header conn.rbuf ~pos:0 ~len:conn.rlen with
        | Ok h -> Wire.header_bytes + h.Wire.h_len
        | Error _ -> Wire.header_bytes
      in
      garbled t conn (Wire.Truncated { wanted; have = conn.rlen })
    end;
    bury t conn ~notify:true
  | k ->
    conn.rlen <- conn.rlen + k;
    drain_frames t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
    bury t conn ~notify:true

let accept_ready t =
  match Unix.accept t.listen_fd with
  | fd, _ -> t.conns <- new_conn fd :: t.conns
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()

(* --- timers ------------------------------------------------------------ *)

let fire_timers t =
  let now = Unix.gettimeofday () in
  let due =
    Hashtbl.fold
      (fun id deadline acc -> if deadline <= now then id :: acc else acc)
      t.timers []
  in
  List.iter
    (fun id ->
      Hashtbl.remove t.timers id;
      Transport.Mailbox.deliver t.mailbox (Transport.Timer { id }))
    (List.sort compare due)

let next_deadline t =
  Hashtbl.fold
    (fun _ d acc ->
      match acc with None -> Some d | Some a -> Some (min a d))
    t.timers None

(* --- the endpoint ------------------------------------------------------ *)

let poll t ~timeout =
  if t.closed then `Idle
  else begin
    let before = Transport.Mailbox.delivered t.mailbox in
    let wait =
      let cap =
        match next_deadline t with
        | None -> timeout
        | Some d -> min timeout (max 0.0 (d -. Unix.gettimeofday ()))
      in
      max 0.0 cap
    in
    let conns = t.conns in
    let fds = t.listen_fd :: List.map (fun c -> c.fd) conns in
    (match Unix.select fds [] [] wait with
    | readable, _, _ ->
      (* fd values compare physically: on Unix a file_descr is an int.
         Reads first, accept after — a conn buried mid-loop has its fd
         closed, and accepting last keeps a reused fd number from being
         read as the old connection. *)
      List.iter
        (fun conn ->
          if conn.alive && List.memq conn.fd readable then read_ready t conn)
        conns;
      if List.memq t.listen_fd readable then accept_ready t
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    fire_timers t;
    if Transport.Mailbox.delivered t.mailbox > before then `Progress
    else `Timeout
  end

let connect t ~dst ~port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let conn = new_conn fd in
  conn.peer <- Some dst;
  t.conns <- conn :: t.conns;
  Hashtbl.replace t.by_peer dst conn;
  send_on t conn (Wire.Ident { pid = t.me });
  flush_pending t dst conn

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    t.conns <- [];
    Hashtbl.reset t.by_peer;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  end

let create ~me () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listen_fd SO_REUSEADDR true;
  Unix.bind listen_fd (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with
    | ADDR_INET (_, port) -> port
    | ADDR_UNIX _ -> assert false
  in
  let t =
    {
      me;
      listen_fd;
      port;
      mailbox = Transport.Mailbox.create ();
      conns = [];
      by_peer = Hashtbl.create 16;
      pending_out = Hashtbl.create 16;
      timers = Hashtbl.create 8;
      closed = false;
    }
  in
  {
    Transport.me;
    now = Unix.gettimeofday;
    send = (fun ~dst frame -> send t ~dst frame);
    send_raw =
      (fun ~dst bytes ->
        (* the nemesis corruption hatch: raw bytes go only to peers with
           an established link — there is no meaningful way to corrupt a
           frame that is still waiting in the pending queue *)
        match Hashtbl.find_opt t.by_peer dst with
        | Some conn -> (
          try write_all conn bytes with Conn_dead c -> bury t c ~notify:true)
        | None -> ());
    connect = (fun ~dst ~port -> connect t ~dst ~port);
    listen_port = port;
    set_timer =
      (fun ~id ~after ->
        Hashtbl.replace t.timers id (Unix.gettimeofday () +. after));
    set_handler = (fun h -> Transport.Mailbox.set t.mailbox h);
    poll = (fun ~timeout -> poll t ~timeout);
    close = (fun () -> close t);
  }

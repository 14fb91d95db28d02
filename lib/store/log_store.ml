module Stable_store = Rdt_storage.Stable_store

type fsync_policy = Always | Every of int | Never

type config = {
  batch_records : int;
  fsync : fsync_policy;
  segment_target_bytes : int;
  compact_min_dead_bytes : int;
  auto_compact : bool;
}

let default_config =
  {
    batch_records = 16;
    fsync = Every 64;
    segment_target_bytes = 256 * 1024;
    compact_min_dead_bytes = 4096;
    auto_compact = true;
  }

type seg_info = {
  id : int;
  mutable total_bytes : int;
  mutable dead_bytes : int;
  mutable sealed : bool;
}

type live_rec = {
  lr_entry : Stable_store.entry;
  mutable lr_seg : seg_info;
  mutable lr_bytes : int;  (* framed on-disk footprint *)
}

type recovery = {
  recovered : Stable_store.entry list;
  records_dropped : int;
  torn_bytes : int;
}

type t = {
  pid : int;
  dir : string;
  config : config;
  faults : Fault.t;
  segs : (int, seg_info) Hashtbl.t;
  live : (int, live_rec) Hashtbl.t;  (* checkpoint index -> live record *)
  mutable active : (Segment.writer * seg_info) option;
  mutable last_writer : Segment.writer option;  (* staging buffer to reuse *)
  mutable next_lsn : int;
  mutable next_seg_id : int;
  mutable appended : int;  (* this instance *)
  mutable appended_base : int;  (* carried from the manifest *)
  mutable compactions : int;
  mutable bytes_reclaimed : int;
  mutable syncs : int;
  mutable ops_since_sync : int;
  mutable recovery_info : recovery;
  mutable dirty : bool;
  mutable poisoned : bool;
  mutable closed : bool;
  mutable compact_crash : [ `After_seal | `After_rewrite ] option;
}

exception Compaction_crash of [ `After_seal | `After_rewrite ]

let recovery t = t.recovery_info

let seg_file_name id = Printf.sprintf "seg-%08d.log" id
let seg_path t id = Filename.concat t.dir (seg_file_name id)

let seg_id_of_file name =
  if
    String.length name = 16
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 8)
  else None

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* --- recovery scan ----------------------------------------------------- *)

let kill t rec_ =
  rec_.lr_seg.dead_bytes <- rec_.lr_seg.dead_bytes + rec_.lr_bytes;
  Hashtbl.remove t.live rec_.lr_entry.Stable_store.index

let recover t =
  let seg_ids =
    Sys.readdir t.dir |> Array.to_list
    |> List.filter_map seg_id_of_file
    |> List.sort compare
  in
  let all = ref [] in
  let dropped = ref 0 and torn = ref 0 in
  List.iter
    (fun id ->
      let path = seg_path t id in
      let size = (Unix.stat path).Unix.st_size in
      let info = { id; total_bytes = size; dead_bytes = 0; sealed = true } in
      Hashtbl.add t.segs id info;
      let accounted = ref 0 in
      let stats =
        Segment.scan ~path ~f:(fun ~frame_bytes r ->
            accounted := !accounted + frame_bytes;
            all := (info, frame_bytes, r) :: !all)
      in
      dropped := !dropped + stats.Segment.dropped;
      torn := !torn + stats.Segment.torn_bytes;
      (* everything in the file that is not a replayable record — torn
         tails, rejected frames, the magic header — is dead weight *)
      info.dead_bytes <- max 0 (size - !accounted))
    seg_ids;
  let all =
    List.sort (fun (_, _, a) (_, _, b) -> compare (Record.lsn a) (Record.lsn b)) !all
  in
  List.iter
    (fun (info, frame_bytes, r) ->
      t.next_lsn <- max t.next_lsn (Record.lsn r + 1);
      match r with
      | Record.Store { entry; _ } ->
        (match Hashtbl.find_opt t.live entry.Stable_store.index with
        | Some old -> kill t old
        | None -> ());
        Hashtbl.replace t.live entry.Stable_store.index
          { lr_entry = entry; lr_seg = info; lr_bytes = frame_bytes }
      | Record.Eliminate { index; _ } -> (
        (* the tombstone itself is dead weight in its own segment *)
        info.dead_bytes <- info.dead_bytes + frame_bytes;
        match Hashtbl.find_opt t.live index with
        | Some rec_ -> kill t rec_
        | None -> () (* its store record was dropped or compacted away *))
      | Record.Truncate_above { index; _ } ->
        info.dead_bytes <- info.dead_bytes + frame_bytes;
        let doomed =
          Hashtbl.fold
            (fun idx rec_ acc -> if idx > index then rec_ :: acc else acc)
            t.live []
        in
        List.iter (kill t) doomed)
    all;
  t.next_seg_id <-
    List.fold_left (fun acc id -> max acc (id + 1)) t.next_seg_id seg_ids;
  let recovered =
    Hashtbl.fold (fun _ r acc -> r.lr_entry :: acc) t.live []
    |> List.sort (fun (a : Stable_store.entry) b -> compare a.index b.index)
  in
  t.recovery_info <-
    { recovered; records_dropped = !dropped; torn_bytes = !torn }

let create ?(config = default_config) ?(faults = Fault.none) ~pid ~dir () =
  if config.batch_records < 1 then invalid_arg "Log_store: batch_records < 1";
  (match config.fsync with
  | Every k when k < 1 -> invalid_arg "Log_store: fsync Every < 1"
  | Always | Every _ | Never -> ());
  mkdir_p dir;
  let t =
    {
      pid;
      dir;
      config;
      faults;
      segs = Hashtbl.create 8;
      live = Hashtbl.create 16;
      active = None;
      last_writer = None;
      next_lsn = 0;
      next_seg_id = 0;
      appended = 0;
      appended_base = 0;
      compactions = 0;
      bytes_reclaimed = 0;
      syncs = 0;
      ops_since_sync = 0;
      recovery_info = { recovered = []; records_dropped = 0; torn_bytes = 0 };
      dirty = false;
      poisoned = false;
      closed = false;
      compact_crash = None;
    }
  in
  (match Manifest.read ~dir with
  | Some m ->
    t.compactions <- m.Manifest.compactions;
    t.bytes_reclaimed <- m.Manifest.bytes_reclaimed;
    t.appended_base <- m.Manifest.appended_records
  | None -> ());
  recover t;
  t

(* --- manifest ---------------------------------------------------------- *)

let write_manifest t =
  Manifest.write ~dir:t.dir
    {
      Manifest.segments =
        Hashtbl.fold (fun id _ acc -> id :: acc) t.segs [] |> List.sort compare;
      compactions = t.compactions;
      bytes_reclaimed = t.bytes_reclaimed;
      appended_records = t.appended_base + t.appended;
    };
  t.dirty <- false

(* --- append path ------------------------------------------------------- *)

let check_usable t =
  if t.poisoned then
    invalid_arg "Log_store: instance poisoned by an injected crash; reopen";
  if t.closed then invalid_arg "Log_store: closed"

let fresh_lsn t =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  lsn

(* At most one writer is open at a time — compaction seals the active
   segment before it rewrites — so each new one takes over the last one's
   staging buffer. *)
let new_writer t id =
  let w = Segment.create_writer ?reuse:t.last_writer ~path:(seg_path t id) () in
  t.last_writer <- Some w;
  w

let ensure_writer t =
  match t.active with
  | Some (w, info) -> (w, info)
  | None ->
    let id = t.next_seg_id in
    t.next_seg_id <- id + 1;
    let w = new_writer t id in
    let info = { id; total_bytes = 0; dead_bytes = 0; sealed = false } in
    Hashtbl.add t.segs id info;
    t.active <- Some (w, info);
    (w, info)

let do_sync t w =
  Segment.sync w;
  t.syncs <- t.syncs + 1;
  t.ops_since_sync <- 0

let seal t =
  match t.active with
  | None -> ()
  | Some (w, info) ->
    Segment.close w;
    t.syncs <- t.syncs + 1;
    t.ops_since_sync <- 0;
    info.sealed <- true;
    t.active <- None;
    write_manifest t

(* Callers append a tombstone before killing what it obsoletes, so a
   rejected record leaves the live set untouched too. *)
let append_record t make_record =
  check_usable t;
  let record = make_record t.next_lsn in
  (* an unframeable record is rejected before anything changes: no LSN,
     no segment file, nothing staged *)
  ignore (Segment.frame_length record);
  t.next_lsn <- t.next_lsn + 1;
  t.dirty <- true;
  let w, info = ensure_writer t in
  let frame_bytes = Segment.append w record in
  info.total_bytes <- info.total_bytes + frame_bytes;
  t.appended <- t.appended + 1;
  t.ops_since_sync <- t.ops_since_sync + 1;
  (match Fault.tick t.faults with
  | Some (op, kind, rng) ->
    t.poisoned <- true;
    t.active <- None;
    (match kind with
    | Fault.Short_write -> Segment.crash_short_write w ~rng
    | Fault.Crash_before_sync -> Segment.crash_drop_unsynced w
    | Fault.Bit_flip -> Segment.crash_bit_flip w ~rng);
    raise (Fault.Injected_crash { op; kind })
  | None -> ());
  if Segment.pending_records w >= t.config.batch_records then Segment.flush w;
  (match t.config.fsync with
  | Always -> do_sync t w
  | Every k -> if t.ops_since_sync >= k then do_sync t w
  | Never -> ());
  if Segment.written_bytes w + Segment.pending_bytes w >= t.config.segment_target_bytes
  then seal t;
  (frame_bytes, info)

(* --- compaction -------------------------------------------------------- *)

let garbage t =
  Hashtbl.fold
    (fun _ info (total, dead) ->
      (total + info.total_bytes, dead + info.dead_bytes))
    t.segs (0, 0)

let arm_compaction_crash t point = t.compact_crash <- Some point

let same_point a b =
  match (a, b) with
  | `After_seal, `After_seal | `After_rewrite, `After_rewrite -> true
  | (`After_seal | `After_rewrite), _ -> false

let maybe_compaction_crash t point =
  match t.compact_crash with
  | Some p when same_point p point ->
    t.compact_crash <- None;
    t.poisoned <- true;
    t.active <- None;
    raise (Compaction_crash point)
  | Some _ | None -> ()

let compact_sealed t =
  (* crash window 1: the active segment was sealed (fully synced), nothing
     of the compaction itself has happened yet *)
  maybe_compaction_crash t `After_seal;
  let sealed =
    Hashtbl.fold (fun _ info acc -> if info.sealed then info :: acc else acc)
      t.segs []
  in
  if not (List.is_empty sealed) then begin
    let movers =
      Hashtbl.fold
        (fun _ r acc -> if r.lr_seg.sealed then r :: acc else acc)
        t.live []
      |> List.sort (fun a b ->
             compare a.lr_entry.Stable_store.index b.lr_entry.Stable_store.index)
    in
    (* Rewrite the survivors (at most n+1 of them, by the paper's bound)
       into one fresh sealed segment, with fresh LSNs so replay
       linearizes the rewrite after everything it superseded. *)
    if not (List.is_empty movers) then begin
      let id = t.next_seg_id in
      t.next_seg_id <- id + 1;
      let w = new_writer t id in
      let info = { id; total_bytes = 0; dead_bytes = 0; sealed = true } in
      List.iter
        (fun r ->
          let frame_bytes =
            Segment.append w
              (Record.Store
                 { pid = t.pid; lsn = fresh_lsn t; entry = r.lr_entry })
          in
          info.total_bytes <- info.total_bytes + frame_bytes;
          r.lr_seg <- info;
          r.lr_bytes <- frame_bytes;
          (* batch-sized writes keep the staging buffer, which the next
             writer inherits, from growing to the whole live set *)
          if Segment.pending_records w >= t.config.batch_records then
            Segment.flush w)
        movers;
      Segment.close w;
      t.syncs <- t.syncs + 1;
      Hashtbl.add t.segs id info
    end;
    (* crash window 2: the rewrite segment is durable but the superseded
       sealed segments have not been deleted yet — recovery must
       deduplicate by LSN *)
    maybe_compaction_crash t `After_rewrite;
    List.iter
      (fun info ->
        t.bytes_reclaimed <- t.bytes_reclaimed + info.total_bytes;
        Hashtbl.remove t.segs info.id;
        Sys.remove (seg_path t info.id))
      sealed;
    t.compactions <- t.compactions + 1;
    t.dirty <- true;
    write_manifest t
  end

let compact t =
  check_usable t;
  (* seal the active segment so its garbage is eligible too *)
  seal t;
  compact_sealed t

(* Fired on every obsolescence notification (eliminate / truncate): compact
   once at least half of the sealed bytes are dead.  The dead-byte floor
   and the ratio keep this from thrashing: after a compaction the store is
   almost all live, so the ratio stays low until RDT-LGC has obsoleted at
   least [compact_min_dead_bytes] worth of records again. *)
let maybe_compact t =
  if t.config.auto_compact then begin
    let total, dead = garbage t in
    if
      dead >= t.config.compact_min_dead_bytes
      && total > 0
      && 2 * dead >= total
    then begin
      seal t;
      compact_sealed t
    end
  end

(* --- the mutation API -------------------------------------------------- *)

let append t entry =
  let frame_bytes, info =
    append_record t (fun lsn -> Record.Store { pid = t.pid; lsn; entry })
  in
  (match Hashtbl.find_opt t.live entry.Stable_store.index with
  | Some old -> kill t old
  | None -> ());
  Hashtbl.replace t.live entry.Stable_store.index
    { lr_entry = entry; lr_seg = info; lr_bytes = frame_bytes }

let eliminate t ~index =
  match Hashtbl.find_opt t.live index with
  | None ->
    invalid_arg (Printf.sprintf "Log_store.eliminate: no live s^%d" index)
  | Some rec_ ->
    let frame_bytes, info =
      append_record t (fun lsn -> Record.Eliminate { pid = t.pid; lsn; index })
    in
    kill t rec_;
    info.dead_bytes <- info.dead_bytes + frame_bytes;
    maybe_compact t

let truncate_above t ~index =
  let doomed =
    Hashtbl.fold
      (fun idx rec_ acc -> if idx > index then rec_ :: acc else acc)
      t.live []
  in
  if not (List.is_empty doomed) then begin
    let frame_bytes, info =
      append_record t (fun lsn ->
          Record.Truncate_above { pid = t.pid; lsn; index })
    in
    List.iter (kill t) doomed;
    info.dead_bytes <- info.dead_bytes + frame_bytes;
    maybe_compact t
  end

let sync t =
  check_usable t;
  match t.active with Some (w, _) -> do_sync t w | None -> ()

let close t =
  if not (t.closed || t.poisoned) then begin
    seal t;
    if t.dirty then write_manifest t;
    t.closed <- true
  end

let backend t =
  {
    Stable_store.b_store = (fun entry -> append t entry);
    b_eliminate =
      (fun entry -> eliminate t ~index:entry.Stable_store.index);
    b_truncate_above = (fun ~index -> truncate_above t ~index);
  }

(* --- observation ------------------------------------------------------- *)

let live_entries t =
  Hashtbl.fold (fun _ r acc -> r.lr_entry :: acc) t.live []
  |> List.sort (fun (a : Stable_store.entry) b -> compare a.index b.index)

let live_indices t =
  List.map (fun (e : Stable_store.entry) -> e.index) (live_entries t)

type stats = {
  segments : int;
  live_records : int;
  live_bytes : int;
  dead_bytes : int;
  disk_bytes : int;
  appended_records : int;
  compactions : int;
  bytes_reclaimed : int;
  syncs : int;
}

let stats t =
  let live_bytes = Hashtbl.fold (fun _ r acc -> acc + r.lr_bytes) t.live 0 in
  let disk_bytes, dead_bytes =
    Hashtbl.fold
      (fun _ info (total, dead) ->
        (total + info.total_bytes, dead + info.dead_bytes))
      t.segs (0, 0)
  in
  {
    segments = Hashtbl.length t.segs;
    live_records = Hashtbl.length t.live;
    live_bytes;
    dead_bytes;
    disk_bytes;
    appended_records = t.appended_base + t.appended;
    compactions = t.compactions;
    bytes_reclaimed = t.bytes_reclaimed;
    syncs = t.syncs;
  }

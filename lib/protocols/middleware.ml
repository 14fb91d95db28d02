module Dependency_vector = Rdt_causality.Dependency_vector
module Stable_store = Rdt_storage.Stable_store
module Dv_archive = Rdt_storage.Dv_archive
module Trace = Rdt_ccp.Trace

(* [receive] runs once per delivered message and must not allocate (its
   DV merge is in place and the hook is passed by field projection, not a
   closure); rdt_lint enforces this.  Checkpoint/rollback paths allocate
   freely — they are store-boundary events, not the hot loop. *)
[@@@lint.zero_alloc_hot "receive" "evolve_state"]

type hooks = {
  on_new_dependency : int -> unit;
  on_checkpoint_stored : int -> unit;
  on_rollback : li:int array -> unit;
}

let no_hooks =
  {
    on_new_dependency = (fun _ -> ());
    on_checkpoint_stored = (fun _ -> ());
    on_rollback = (fun ~li:_ -> ());
  }

type message = { msg_id : int; src : int; control : Control.t }

type kind = Basic | Forced

type t = {
  n : int;
  me : int;
  proto : Protocol.instance;
  trace : Trace.t;
  store : Stable_store.t;
  (* built by the first {!archive} call; until then checkpoints and
     rollbacks do no archive work *)
  mutable archive : Dv_archive.t option;
  dv : Dependency_vector.t;
  ckpt_bytes : int;
  mutable hooks : hooks;
  mutable app_state : int;
  mutable basic_count : int;
  mutable forced_count : int;
}

(* Synthetic application state: a deterministic digest of the process's
   communication history, so rollback restoration is observable. *)
let evolve_state state tag =
  let h = state lxor (tag * 0x9E3779B1) in
  let h = h lxor (h lsr 16) in
  h * 0x85EBCA6B land max_int

let take_checkpoint t ~kind ~now =
  let index = Dependency_vector.get t.dv t.me in
  (* one snapshot copy at the store boundary (DESIGN.md §10): the stored
     entry owns it, an archive shares the same immutable array *)
  let entry =
    Stable_store.store_from t.store ~index
      ~dv:(Dependency_vector.view t.dv)
      ~now ~size_bytes:t.ckpt_bytes ~payload:t.app_state ()
  in
  (match t.archive with
  | Some a -> Dv_archive.record a ~index ~dv:entry.Stable_store.dv
  | None -> ());
  Trace.record_checkpoint t.trace ~pid:t.me ~index;
  t.proto.Protocol.note_checkpoint ();
  t.hooks.on_checkpoint_stored index;
  Dependency_vector.increment t.dv t.me;
  match kind with
  | Basic -> t.basic_count <- t.basic_count + 1
  | Forced -> t.forced_count <- t.forced_count + 1

let create ~n ~me ~protocol ~trace ?(ckpt_bytes = 1) ?store () =
  let store =
    match store with
    | None -> Stable_store.create ~me
    | Some s ->
      if Stable_store.count s <> 0 then
        invalid_arg "Middleware.create: supplied store must be empty";
      s
  in
  let t =
    {
      n;
      me;
      proto = protocol.Protocol.make ~n ~me;
      trace;
      store;
      archive = None;
      dv = Dependency_vector.create ~n;
      ckpt_bytes;
      hooks = no_hooks;
      app_state = me + 1;
      basic_count = 0;
      forced_count = 0;
    }
  in
  (* every process starts its execution by storing s^0 *)
  take_checkpoint t ~kind:Basic ~now:0.0;
  t.basic_count <- 0;
  t

let restore ~n ~me ~protocol ~trace ?(ckpt_bytes = 1) ~store () =
  let last =
    match Stable_store.find store ~index:(Stable_store.last_index store) with
    | None -> invalid_arg "Middleware.restore: restored store is empty"
    | Some e -> e
  in
  let dv = Dependency_vector.create ~n in
  (* Algorithm 3 lines 4-6 applied to the last surviving checkpoint: the
     volatile state a crash destroyed is exactly what a rollback discards,
     so a respawned process is a process rolled back to its last stable
     checkpoint.  The recovery session that follows the respawn never
     reads this provisional DV (the recovery line of a faulty process is
     computed from stored vectors only). *)
  Dependency_vector.blit_into
    ~src:(Dependency_vector.of_view last.Stable_store.dv)
    ~dst:dv;
  Dependency_vector.increment dv me;
  {
    n;
    me;
    proto = protocol.Protocol.make ~n ~me;
    trace;
    store;
    archive = None;
    dv;
    ckpt_bytes;
    hooks = no_hooks;
    app_state = last.Stable_store.payload;
    basic_count = 0;
    forced_count = 0;
  }

let set_hooks t hooks = t.hooks <- hooks

let dv t = t.dv
let store t = t.store

let archive t =
  match t.archive with
  | Some a -> a
  | None ->
    (* the vectors of checkpoints collected before this call are gone *)
    let a =
      Dv_archive.restore ~me:t.me
        ~entries:
          (List.map
             (fun (e : Stable_store.entry) -> (e.index, e.dv))
             (Stable_store.retained t.store))
    in
    t.archive <- Some a;
    a

let basic_checkpoint t ~now =
  take_checkpoint t ~kind:Basic ~now

let prepare_send ?into t ~dst ~now =
  t.proto.Protocol.note_send ();
  (* [Control.make] performs the single message-boundary copy itself, into
     [into] when the caller recycles buffers *)
  let control =
    Control.make ?into
      ~dv:(Dependency_vector.view t.dv)
      ~index:(t.proto.Protocol.control_index ())
      ()
  in
  let msg_id = Trace.fresh_msg_id t.trace ~pid:t.me in
  Trace.record_send t.trace ~pid:t.me ~msg_id ~dst;
  t.app_state <- evolve_state t.app_state ((2 * msg_id) + 1);
  if t.proto.Protocol.force_after_send then take_checkpoint t ~kind:Forced ~now;
  { msg_id; src = t.me; control }

let receive t msg ~now =
  (* borrowed view: [need_forced] only reads it during the call *)
  let local_dv = Dependency_vector.view t.dv in
  if t.proto.Protocol.need_forced ~local_dv ~incoming:msg.control then
    take_checkpoint t ~kind:Forced ~now;
  Trace.record_receive t.trace ~pid:t.me ~msg_id:msg.msg_id ~src:msg.src;
  t.app_state <- evolve_state t.app_state (2 * msg.msg_id);
  Dependency_vector.merge_from_message_iter t.dv msg.control.dv
    ~f:t.hooks.on_new_dependency;
  t.proto.Protocol.note_receive ~incoming:msg.control

let rollback t ~to_index ~li =
  (match Stable_store.find t.store ~index:to_index with
  | None ->
    invalid_arg
      (Printf.sprintf "Middleware.rollback: p%d holds no s^%d" t.me to_index)
  | Some entry ->
    ignore (Stable_store.truncate_above t.store ~index:to_index);
    (match t.archive with
    | Some a -> Dv_archive.truncate_above a ~index:to_index
    | None -> ());
    (* Algorithm 3 lines 4-6: recreate DV from the restored checkpoint *)
    Dependency_vector.blit_into
      ~src:(Dependency_vector.of_view entry.Stable_store.dv)
      ~dst:t.dv;
    Dependency_vector.increment t.dv t.me;
    (* the volatile application state is replaced by the checkpointed one *)
    t.app_state <- entry.Stable_store.payload);
  Trace.truncate_to_checkpoint t.trace ~pid:t.me ~index:to_index;
  (* a fresh interval starts: reset the protocol's interval state (for
     index-based protocols this only advances the monotone index, which is
     safe) *)
  t.proto.Protocol.note_checkpoint ();
  let li =
    match li with Some li -> li | None -> Dependency_vector.to_array t.dv
  in
  t.hooks.on_rollback ~li

let app_state t = t.app_state

let basic_count t = t.basic_count
let forced_count t = t.forced_count

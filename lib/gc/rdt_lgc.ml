module Dependency_vector = Rdt_causality.Dependency_vector
module Stable_store = Rdt_storage.Stable_store
module Middleware = Rdt_protocols.Middleware

(* [on_new_dependency] runs once per new dependency a receive brings (35
   per message at n=256 client-server) and must not allocate: [link] and
   [release] only read and write int arrays, so the receive path neither
   allocates nor runs a write barrier.  rdt_lint enforces this. *)
[@@@lint.zero_alloc_hot "release" "link" "on_new_dependency"]

(* Checkpoint control blocks (paper, Algorithm 1) live in a slot table of
   plain ints: slot [s] represents stable checkpoint [ind.(s)] and is
   referenced by [rc.(s)] UC entries.  [uc.(f)] holds a slot, or [null]
   for the paper's Null reference, which no entry counts and which is
   never eliminated.  Free slots are threaded through [ind], starting at
   [free] ([null] when the table is full).  A live slot has [rc > 0], and
   at most n + 1 are live, one per retained checkpoint; the table starts
   at [initial_slots] and doubles on demand, so a process that retains a
   few checkpoints keeps a small table however wide the system is. *)
let null = -1
let initial_slots = 4

type t = {
  n : int;
  me : int;
  store : Stable_store.t;
  dv : Dependency_vector.t;
  uc : int array;
  mutable ind : int array;
  mutable rc : int array;
  mutable free : int;
  mutable test_overcollect : bool;
}

let free_slot t s =
  t.ind.(s) <- t.free;
  t.free <- s

(* Free slots [lo .. hi-1], lowest first on the free list. *)
let free_range t ~lo ~hi =
  for s = hi - 1 downto lo do
    t.rc.(s) <- 0;
    free_slot t s
  done

let doubled a = Array.append a (Array.make (Array.length a) 0)

let grow t =
  let cap = Array.length t.ind in
  t.ind <- doubled t.ind;
  t.rc <- doubled t.rc;
  free_range t ~lo:cap ~hi:(2 * cap)

(* A fresh slot for checkpoint [index], with no references yet. *)
let alloc_slot t ~index =
  if t.free = null then grow t;
  let s = t.free in
  t.free <- t.ind.(s);
  t.ind.(s) <- index;
  s

let release t j =
  let s = t.uc.(j) in
  if s <> null then begin
    let rc = t.rc.(s) - 1 in
    t.rc.(s) <- rc;
    if rc = 0 then begin
      Stable_store.eliminate t.store ~index:t.ind.(s);
      free_slot t s
    end;
    t.uc.(j) <- null
  end

let link t j =
  (* UC.(j) <- UC.(me); UC.(j).rc++ — UC.(me) always references the last
     stable checkpoint, so it is never Null. *)
  let s = t.uc.(t.me) in
  assert (s <> null);
  t.rc.(s) <- t.rc.(s) + 1;
  t.uc.(j) <- s

let new_ccb t ~index =
  let s = alloc_slot t ~index in
  t.rc.(s) <- 1;
  t.uc.(t.me) <- s

let empty ~me ~store ~dv ~n =
  let t =
    {
      n;
      me;
      store;
      dv;
      uc = Array.make n null;
      ind = Array.make initial_slots 0;
      rc = Array.make initial_slots 0;
      free = null;
      test_overcollect = false;
    }
  in
  free_range t ~lo:0 ~hi:initial_slots;
  t

let create ~me ~store ~dv ~n =
  if Stable_store.count store <> 1 || not (Stable_store.mem store ~index:0)
  then
    invalid_arg "Rdt_lgc.create: attach to a fresh middleware holding only s^0";
  let t = empty ~me ~store ~dv ~n in
  (* state after initialize() plus the checkpoint step for s^0 *)
  new_ccb t ~index:0;
  t

let restore ~me ~store ~dv ~n =
  if Stable_store.count store = 0 then
    invalid_arg "Rdt_lgc.restore: restored store is empty";
  (* a crash destroyed UC; Algorithm 3's rollback step rebuilds every slot
     from retained checkpoints + the restored DV + LI, so a respawned
     collector starts all-Null and must see a rollback before any other
     hook fires (the recovery session guarantees it: the faulty process
     always rolls back) *)
  empty ~me ~store ~dv ~n

let on_new_dependency t j =
  release t j;
  link t j

let on_checkpoint_stored t index =
  release t t.me;
  new_ccb t ~index;
  if t.test_overcollect then
    (* deliberately wrong: also drop every cross-process retention duty,
       eliminating checkpoints other processes may still need *)
    for f = 0 to t.n - 1 do
      if f <> t.me then release t f
    done

let set_test_overcollect t flag = t.test_overcollect <- flag

let on_rollback t ~li =
  if Array.length li <> t.n then invalid_arg "Rdt_lgc.on_rollback: arity";
  (* borrowed: read only before the first elimination below *)
  let entries = Array.of_list (Stable_store.retained_view t.store) in
  (* Algorithm 3 line 7: fresh CCBs for every stored checkpoint; the old
     ones all go, so the whole table is freed first and [entries.(pos)]
     gets slot [slots.(pos)] *)
  t.free <- null;
  free_range t ~lo:0 ~hi:(Array.length t.ind);
  let slots =
    Array.map (fun (e : Stable_store.entry) -> alloc_slot t ~index:e.index) entries
  in
  (* borrowed: [retained_for] only reads the live vector during the call *)
  let snap = { Global_gc.entries; live_dv = Dependency_vector.view t.dv } in
  for f = 0 to t.n - 1 do
    (* Algorithm 3 line 9 *)
    match Global_gc.retained_for snap ~f ~li_f:li.(f) with
    | Some pos ->
      let s = slots.(pos) in
      t.rc.(s) <- t.rc.(s) + 1;
      t.uc.(f) <- s
    | None -> t.uc.(f) <- null
  done;
  (* lines 15-17: eliminate every checkpoint left unreferenced *)
  Array.iter
    (fun s ->
      if t.rc.(s) = 0 then begin
        Stable_store.eliminate t.store ~index:t.ind.(s);
        free_slot t s
      end)
    slots

let release_outdated t ~li =
  if Array.length li <> t.n then
    invalid_arg "Rdt_lgc.release_outdated: arity";
  for f = 0 to t.n - 1 do
    if f <> t.me && Dependency_vector.get t.dv f < li.(f) then release t f
  done

let hooks t =
  {
    Middleware.on_new_dependency = on_new_dependency t;
    on_checkpoint_stored = on_checkpoint_stored t;
    on_rollback = (fun ~li -> on_rollback t ~li);
  }

let attach t mw = Middleware.set_hooks mw (hooks t)

let retained_because_of t f =
  let s = t.uc.(f) in
  if s = null then None else Some t.ind.(s)

let uc_view t = Array.init t.n (retained_because_of t)

let slot_capacity t = Array.length t.ind
let slots_in_use t =
  Array.fold_left (fun k rc -> if rc > 0 then k + 1 else k) 0 t.rc

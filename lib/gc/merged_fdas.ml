module Stable_store = Rdt_storage.Stable_store
module Control = Rdt_protocols.Control

type ccb = { ind : int; mutable rc : int }

type t = {
  n : int;
  me : int;
  dv : int array;
  uc : ccb option array;
  store : Stable_store.t;
  mutable sent : bool;
  mutable basic_count : int;
  mutable forced_count : int;
}

(* Algorithm 1 procedures *)

let release t j =
  match t.uc.(j) with
  | None -> ()
  | Some ccb ->
    ccb.rc <- ccb.rc - 1;
    if ccb.rc = 0 then Stable_store.eliminate t.store ~index:ccb.ind;
    t.uc.(j) <- None

let link t j =
  match t.uc.(t.me) with
  | None -> assert false
  | Some ccb ->
    ccb.rc <- ccb.rc + 1;
    t.uc.(j) <- Some ccb

let new_ccb t ~index = t.uc.(t.me) <- Some { ind = index; rc = 1 }

(* "On taking checkpoint (basic or forced)" *)
let take_checkpoint t ~now =
  t.sent <- false;
  let index = t.dv.(t.me) in
  ignore (Stable_store.store_from t.store ~index ~dv:t.dv ~now ~size_bytes:1 ());
  release t t.me;
  new_ccb t ~index;
  t.dv.(t.me) <- t.dv.(t.me) + 1

let create ~n ~me =
  let t =
    {
      n;
      me;
      dv = Array.make n 0;
      uc = Array.make n None;
      store = Stable_store.create ~me;
      sent = false;
      basic_count = 0;
      forced_count = 0;
    }
  in
  take_checkpoint t ~now:0.0;
  t

let dv t = Array.copy t.dv
let uc_view t = Array.map (Option.map (fun ccb -> ccb.ind)) t.uc
let store t = t.store

let basic_checkpoint t ~now =
  take_checkpoint t ~now;
  t.basic_count <- t.basic_count + 1

let before_send t =
  t.sent <- true;
  Control.make ~dv:t.dv ~index:0 ()

let receive t (m : Control.t) ~now =
  (* FDAS freezes the dependency vector once a send occurred in the
     interval; the first entry the message would change triggers the
     forced checkpoint, stored before any update.  The arity check up
     front licenses the unchecked accesses in the per-entry loop — this
     is the per-message O(n) scan the paper's overhead argument is about,
     and it must not allocate. *)
  if Array.length m.Control.dv <> t.n then
    invalid_arg "Merged_fdas.receive: control arity mismatch";
  let forced = ref t.sent in
  for j = 0 to t.n - 1 do
    let mj = Array.unsafe_get m.Control.dv j in
    if mj > Array.unsafe_get t.dv j then begin
      if !forced then begin
        take_checkpoint t ~now;
        t.forced_count <- t.forced_count + 1;
        forced := false
      end;
      release t j;
      link t j;
      Array.unsafe_set t.dv j mj
    end
  done
[@@lint.bounds_checked]

let forced_count t = t.forced_count
let basic_count t = t.basic_count

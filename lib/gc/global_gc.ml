module Stable_store = Rdt_storage.Stable_store

type snapshot = { entries : Stable_store.entry array; live_dv : int array }

let last_interval_vector snaps =
  Array.map
    (fun s ->
      let len = Array.length s.entries in
      if len = 0 then invalid_arg "Global_gc: a process retains no checkpoint";
      s.entries.(len - 1).Stable_store.index + 1)
    snaps

let dv_at { entries; live_dv } =
  let len = Array.length entries in
  fun pos -> if pos < len then entries.(pos).Stable_store.dv else live_dv

(* Entry [f] of a DV is nondecreasing over a process's checkpoints, so
   the paper's O(log m) binary search applies (Section 4.5: Algorithm 3
   runs in O(n log n) when O(n) checkpoints are stored).  Invariant:
   every position below [lo] misses [x], and position [hi] reaches it or
   is [len + 1]; [mid < hi], so no probe goes past the live vector.  The
   annotation keeps the comparison on ints. *)
let rec search ~(dv_at : int -> int array) ~f ~x lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if (dv_at mid).(f) >= x then search ~dv_at ~f ~x lo mid
    else search ~dv_at ~f ~x (mid + 1) hi
  end

let first_reaching ~len ~dv_at ~f ~x = search ~dv_at ~f ~x 0 (len + 1)

(* Shared with Rdt_lgc's Algorithm 3 (see Rdt_lgc for the derivation). *)
let retained_for snap ~f ~li_f =
  let len = Array.length snap.entries in
  let pos = first_reaching ~len ~dv_at:(dv_at snap) ~f ~x:li_f - 1 in
  if pos < 0 || pos >= len then None else Some pos

(* The indices whose Theorem-1 keep flag equals [keep], ascending. *)
let select snap ~li ~keep =
  let len = Array.length snap.entries in
  if len = 0 then invalid_arg "Global_gc: a process retains no checkpoint";
  let kept = Array.make len false in
  kept.(len - 1) <- true;
  for f = 0 to Array.length li - 1 do
    match retained_for snap ~f ~li_f:li.(f) with
    | Some pos -> kept.(pos) <- true
    | None -> ()
  done;
  let indices = ref [] in
  for pos = len - 1 downto 0 do
    if kept.(pos) = keep then
      indices := snap.entries.(pos).Stable_store.index :: !indices
  done;
  !indices

let retained snap ~li = select snap ~li ~keep:true
let collectable snap ~li = select snap ~li ~keep:false

module Stable_store = Rdt_storage.Stable_store

type snapshot = { entries : Stable_store.entry array; live_dv : int array }

let last_index snap =
  let len = Array.length snap.entries in
  if len = 0 then invalid_arg "Global_gc: a process retains no checkpoint";
  snap.entries.(len - 1).Stable_store.index

let last_interval_vector snaps = Array.map (fun s -> last_index s + 1) snaps

(* Shared with Rdt_lgc's Algorithm 3: the checkpoint retained because of
   p_f given knowledge li_f (see Rdt_lgc for the derivation).  The DV
   entry for f is monotone over a process's own checkpoints, so the
   paper's O(log m) binary search applies (Section 4.5: Algorithm 3 runs
   in O(n log n) when O(n) checkpoints are stored). *)
let retained_for ~entries ~live_dv ~f ~li_f =
  if li_f <= 0 then None
  else begin
    let len = Array.length entries in
    let dv_at pos =
      let entry : Stable_store.entry = entries.(pos) in
      entry.dv
    in
    if len = 0 || (dv_at 0).(f) >= li_f then None
    else begin
      (* invariant: (dv_at lo).(f) < li_f <= (dv_at hi).(f); find the
         largest position below li_f *)
      let rec bsearch lo hi =
        if hi - lo <= 1 then lo
        else begin
          let mid = (lo + hi) / 2 in
          if (dv_at mid).(f) < li_f then bsearch mid hi else bsearch lo mid
        end
      in
      let pos =
        if (dv_at (len - 1)).(f) < li_f then len - 1 else bsearch 0 (len - 1)
      in
      let successor_dv = if pos + 1 < len then dv_at (pos + 1) else live_dv in
      if successor_dv.(f) >= li_f then Some entries.(pos).Stable_store.index
      else None
    end
  end

module Int_set = Set.Make (Int)

let theorem1_keep_set snaps ~me ~li =
  let snap = snaps.(me) in
  let keep = ref (Int_set.singleton (last_index snap)) in
  for f = 0 to Array.length snaps - 1 do
    match
      retained_for ~entries:snap.entries ~live_dv:snap.live_dv ~f
        ~li_f:li.(f)
    with
    | Some index -> keep := Int_set.add index !keep
    | None -> ()
  done;
  !keep

let theorem1_retained snaps ~me ~li =
  Int_set.elements (theorem1_keep_set snaps ~me ~li)

let theorem1_retained_count snaps ~me ~li =
  Int_set.cardinal (theorem1_keep_set snaps ~me ~li)

let theorem1_collectable snaps ~me ~li =
  let keep = Int_set.of_list (theorem1_retained snaps ~me ~li) in
  Array.to_list snaps.(me).entries
  |> List.filter_map (fun (e : Stable_store.entry) ->
         if Int_set.mem e.index keep then None else Some e.index)

let theorem2_retained ~entries ~live_dv =
  let len = Array.length entries in
  if len = 0 then invalid_arg "Global_gc.theorem2_collectable: no checkpoints";
  let last = entries.(len - 1).Stable_store.index in
  let keep = ref (Int_set.singleton last) in
  for f = 0 to Array.length live_dv - 1 do
    match retained_for ~entries ~live_dv ~f ~li_f:live_dv.(f) with
    | Some index -> keep := Int_set.add index !keep
    | None -> ()
  done;
  Int_set.elements !keep

let theorem2_collectable ~entries ~live_dv =
  let keep = Int_set.of_list (theorem2_retained ~entries ~live_dv) in
  Array.to_list entries
  |> List.filter_map (fun (e : Stable_store.entry) ->
         if Int_set.mem e.index keep then None else Some e.index)

type entry = {
  index : int;
  dv : int array;
  taken_at : float;
  size_bytes : int;
  payload : int;
}

type stats = {
  stored_total : int;
  eliminated_total : int;
  peak_count : int;
}

type backend = {
  b_store : entry -> unit;
  b_eliminate : entry -> unit;
  b_truncate_above : index:int -> unit;
}

(* Storing, eliminating and truncating are once-per-checkpoint paths;
   rdt_lint holds the row blit and the shift to alloc/*. *)
[@@@lint.zero_alloc_hot "copy_unchecked" "copy_ints" "fill_row" "shift_down" "position"]

(* Retained checkpoints in index order, one column per field: position
   [k < count] is the k-th retained checkpoint.  A row at a position
   [>= count] is spare: the vector of an eliminated or truncated
   checkpoint, overwritten by a later store instead of allocating, or
   [[||]] where no checkpoint has been yet.  Only the columns are
   replaced (when they grow), never a row that a retained checkpoint
   still uses. *)
type cols = {
  indices : int array;
  taken_at : float array;
  sizes : int array;
  payloads : int array;
  rows : int array array;
}

type t = {
  me : int;
  mutable backend : backend option;
  mutable cols : cols;
  mutable count : int;
  mutable eliminated_total : int;
  mutable peak_count : int;
}

(* shared by every store until its first checkpoint: no column is
   allocated before there is something to hold *)
let no_cols =
  { indices = [||]; taken_at = [||]; sizes = [||]; payloads = [||]; rows = [||] }

let create ~me =
  {
    me;
    backend = None;
    cols = no_cols;
    count = 0;
    eliminated_total = 0;
    peak_count = 0;
  }

let set_backend t backend = t.backend <- Some backend

(* The first columns, four positions each, are literals: they allocate
   inline, where [Array.make] is a C call apiece — a cost every process
   pays once at start-up, when it stores [s^0]. *)
let first_cols () =
  {
    indices = [| 0; 0; 0; 0 |];
    taken_at = [| 0.0; 0.0; 0.0; 0.0 |];
    sizes = [| 0; 0; 0; 0 |];
    payloads = [| 0; 0; 0; 0 |];
    rows = [| [||]; [||]; [||]; [||] |];
  }

(* double every column, keeping the retained checkpoints and the spare
   rows *)
let grow t =
  let c = t.cols in
  let len = Array.length c.indices in
  if len = 0 then t.cols <- first_cols ()
  else begin
    let extend col filler =
      let a = Array.make (2 * len) filler in
      Array.blit col 0 a 0 len;
      a
    in
    t.cols <-
      {
        indices = extend c.indices 0;
        taken_at = extend c.taken_at 0.0;
        sizes = extend c.sizes 0;
        payloads = extend c.payloads 0;
        rows = extend c.rows [||];
      }
  end

(* An [int array] loop, not [Array.blit]: the columns and rows are soon
   promoted, and [Array.blit] into a promoted block runs a write barrier
   per element, not knowing they are ints.  Ascending, so it also
   shifts a column down in place.  [copy_ints] checks both ranges once;
   the loop runs unchecked, four entries per step, which brings an
   n=256 row to about the cost of the [Array.copy] it replaces (a plain
   loop took twice as long). *)
let rec copy_unchecked (src : int array) i (dst : int array) d stop =
  if i + 4 <= stop then begin
    Array.unsafe_set dst (i + d) (Array.unsafe_get src i);
    Array.unsafe_set dst (i + d + 1) (Array.unsafe_get src (i + 1));
    Array.unsafe_set dst (i + d + 2) (Array.unsafe_get src (i + 2));
    Array.unsafe_set dst (i + d + 3) (Array.unsafe_get src (i + 3));
    copy_unchecked src (i + 4) dst d stop
  end
  else if i < stop then begin
    Array.unsafe_set dst (i + d) (Array.unsafe_get src i);
    copy_unchecked src (i + 1) dst d stop
  end
[@@lint.bounds_checked]

let copy_ints ~(src : int array) ~src_pos ~(dst : int array) ~dst_pos ~len =
  if
    src_pos < 0 || dst_pos < 0 || len < 0
    || src_pos + len > Array.length src
    || dst_pos + len > Array.length dst
  then invalid_arg "Stable_store.copy_ints";
  copy_unchecked src src_pos dst (dst_pos - src_pos) (src_pos + len)

let fresh_row c k dv = c.rows.(k) <- Array.copy dv

(* the store-boundary copy: into the spare row at [k] when it has the
   vector's width, which after the first few checkpoints it always has *)
let fill_row c k (dv : int array) =
  let row = c.rows.(k) in
  let len = Array.length dv in
  if Array.length row = len then
    copy_ints ~src:dv ~src_pos:0 ~dst:row ~dst_pos:0 ~len
  else fresh_row c k dv

(* The position of [index] among the first [count] positions, or -1:
   a binary search, as the indices ascend. *)
let rec search (indices : int array) index lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let at = indices.(mid) in
    if at = index then mid
    else if at < index then search indices index (mid + 1) hi
    else search indices index lo mid

let position t index = search t.cols.indices index 0 t.count

let entry_with c k dv =
  {
    index = c.indices.(k);
    dv;
    taken_at = c.taken_at.(k);
    size_bytes = c.sizes.(k);
    payload = c.payloads.(k);
  }

(* a copy of position [k]: what leaves the store is its receiver's *)
let entry_at c k = entry_with c k (Array.copy c.rows.(k))

let last_index t = if t.count = 0 then -1 else t.cols.indices.(t.count - 1)

(* Position [count] takes the checkpoint; the caller has checked the
   order. *)
let append t ~index ~dv ~now ~size_bytes ~payload =
  if t.count = Array.length t.cols.indices then grow t;
  let c = t.cols and k = t.count in
  c.indices.(k) <- index;
  c.taken_at.(k) <- now;
  c.sizes.(k) <- size_bytes;
  c.payloads.(k) <- payload;
  fill_row c k dv;
  t.count <- k + 1;
  if t.count > t.peak_count then t.peak_count <- t.count

let restore ~me ~entries =
  let t = create ~me in
  List.iter
    (fun entry ->
      if entry.index <= last_index t then
        invalid_arg "Stable_store.restore: entries not ascending";
      append t ~index:entry.index ~dv:entry.dv ~now:entry.taken_at
        ~size_bytes:entry.size_bytes ~payload:entry.payload)
    entries;
  t

let store_from t ~index ~dv ~now ~size_bytes ~payload =
  if index <= last_index t then
    invalid_arg
      (Printf.sprintf
         "Stable_store.store_from: p%d writing s^%d but already holds s^%d" t.me
         index (last_index t));
  append t ~index ~dv ~now ~size_bytes ~payload;
  match t.backend with
  | Some b -> b.b_store (entry_at t.cols (t.count - 1))
  | None -> ()

(* Positions [k + 1 .. count - 1] move down one; the row at [k] becomes
   the spare at [count - 1]. *)
let shift_down c k ~count =
  let row = c.rows.(k) and len = count - 1 - k in
  let src_pos = k + 1 in
  copy_ints ~src:c.indices ~src_pos ~dst:c.indices ~dst_pos:k ~len;
  copy_ints ~src:c.sizes ~src_pos ~dst:c.sizes ~dst_pos:k ~len;
  copy_ints ~src:c.payloads ~src_pos ~dst:c.payloads ~dst_pos:k ~len;
  Array.blit c.taken_at (k + 1) c.taken_at k len;
  Array.blit c.rows (k + 1) c.rows k len;
  c.rows.(count - 1) <- row

let remove_at t k =
  shift_down t.cols k ~count:t.count;
  t.count <- t.count - 1;
  t.eliminated_total <- t.eliminated_total + 1

let eliminate t ~index =
  let k = position t index in
  if k < 0 then
    invalid_arg
      (Printf.sprintf "Stable_store.eliminate: p%d does not hold s^%d" t.me
         index);
  match t.backend with
  | None -> remove_at t k
  | Some b ->
    (* the backend's copy is taken before the row becomes spare *)
    let entry = entry_at t.cols k in
    remove_at t k;
    b.b_eliminate entry

(* the first position whose index exceeds [index] *)
let rec first_above (indices : int array) index lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if indices.(mid) > index then first_above indices index lo mid
    else first_above indices index (mid + 1) hi

let truncate_above t ~index =
  let keep = first_above t.cols.indices index 0 t.count in
  let removed = t.count - keep in
  (* the removed rows stay where they are, as spares *)
  t.count <- keep;
  t.eliminated_total <- t.eliminated_total + removed;
  (* one truncation record, not one tombstone per checkpoint: a rollback
     is a single durable event *)
  if removed > 0 then
    (match t.backend with Some b -> b.b_truncate_above ~index | None -> ());
  removed

let mem t ~index = position t index >= 0

let find t ~index =
  let k = position t index in
  if k < 0 then None else Some (entry_at t.cols k)

let retained t = List.init t.count (entry_at t.cols)
let retained_indices t = List.init t.count (fun k -> t.cols.indices.(k))

let retained_view t =
  let c = t.cols in
  List.init t.count (fun k -> entry_with c k c.rows.(k))

let count t = t.count

let stats t =
  {
    (* every checkpoint ever written is either retained or eliminated *)
    stored_total = t.eliminated_total + t.count;
    eliminated_total = t.eliminated_total;
    peak_count = t.peak_count;
  }

let pp ppf t =
  Format.fprintf ppf "p%d:{%a}" t.me
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (retained_indices t)

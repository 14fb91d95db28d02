(* Binary min-heap over (time, u, v), stored flat: an unboxed
   [float array] of times and one [int array] holding, per heap position,
   the canonical key [u], [v] and the payload's slot — three ints at
   [3 * pos].  A comparison reads only these, never a separately
   allocated entry.  Payloads live in a slot pool ([values]), written
   once when the entry is added and read once when it fires, so a sift
   moves ints and floats only: no store of a boxed value, no write
   barrier ([caml_modify]).  Scheduling allocates nothing once the
   columns have grown to the queue's working size, and neither does
   firing, which returns the bare value (the caller reads the time with
   [next_time] first).

   Slot 0 is a staging slot: [add_keyed] writes the new entry there and
   [pop] moves the displaced last entry there; the sifts then walk a hole
   through the heap, comparing against the staged entry, and write it
   into its final position once.  The heap proper occupies positions
   [1 .. size] (the parent of position [i] is [i / 2]).  The slot field
   of every position past [size] holds a free slot of the pool: [pop]
   parks the fired entry's slot at the position it vacates, and
   [add_keyed] takes the slot parked at the position it fills.

   The (u, v) pair is a caller-supplied canonical key, unique among the
   entries: the engine's keys make execution order at equal timestamps a
   function of the simulation, not of insertion order. *)

(* Scheduling and firing are the simulator's inner loop; rdt_lint holds
   the named functions to alloc/*. *)
[@@@lint.zero_alloc_hot
  "less" "move" "sift_up" "sift_down" "add_keyed" "pop"]

type 'a t = {
  mutable times : float array;
  (* [u; v; slot] per position *)
  mutable keys : int array;
  (* a fired payload stays in its slot until the slot is reused, so a
     queue retains at most its capacity in stale values *)
  mutable values : 'a array;
  mutable size : int;
}

let create () = { times = [||]; keys = [||]; values = [||]; size = 0 }

(* Every position passed below is at most [size], which [add_keyed]
   keeps below the columns' capacity, so the unchecked accesses stay in
   range. *)

(* position [i] sorts before position [j] *)
let[@inline] less t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  if ti <> tj then ti < tj
  else
    let keys = t.keys in
    let ui = Array.unsafe_get keys (3 * i)
    and uj = Array.unsafe_get keys (3 * j) in
    if ui <> uj then ui < uj
    else Array.unsafe_get keys ((3 * i) + 1) < Array.unsafe_get keys ((3 * j) + 1)
[@@lint.bounds_checked]

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  let keys = t.keys and s = 3 * src and d = 3 * dst in
  Array.unsafe_set keys d (Array.unsafe_get keys s);
  Array.unsafe_set keys (d + 1) (Array.unsafe_get keys (s + 1));
  Array.unsafe_set keys (d + 2) (Array.unsafe_get keys (s + 2))
[@@lint.bounds_checked]

(* double every column, keeping the heap positions [1 .. size] and the
   payloads; the fresh positions get the fresh slots, their own numbers.
   [filler] initializes the fresh pool slots.  The amortized doubling
   path, and the one allocation the queue makes, so it is outside the
   hot set.  It runs only when every slot is taken ([size] = capacity
   - 1), so no free slot is lost. *)
let grow t filler =
  let old = Array.length t.times in
  let cap = max 16 (2 * old) in
  let times = Array.make cap 0.0 in
  let keys = Array.make (3 * cap) 0 in
  let values = Array.make cap filler in
  (* a never-grown queue has empty columns, which have no slot 1 *)
  if t.size > 0 then begin
    Array.blit t.times 1 times 1 t.size;
    Array.blit t.keys 3 keys 3 (3 * t.size);
    Array.blit t.values 1 values 1 t.size
  end;
  for pos = max 1 old to cap - 1 do
    keys.((3 * pos) + 2) <- pos
  done;
  t.times <- times;
  t.keys <- keys;
  t.values <- values

(* the hole at [h] moves up past every parent the staged entry precedes *)
let rec sift_up t h =
  let p = h / 2 in
  if p >= 1 && less t 0 p then begin
    move t ~src:p ~dst:h;
    sift_up t p
  end
  else move t ~src:0 ~dst:h

(* the hole at [h] moves down past every child that precedes the staged
   entry *)
let rec sift_down t h =
  let c = 2 * h in
  if c > t.size then move t ~src:0 ~dst:h
  else begin
    let c = if c < t.size && less t (c + 1) c then c + 1 else c in
    if less t c 0 then begin
      move t ~src:c ~dst:h;
      sift_down t c
    end
    else move t ~src:0 ~dst:h
  end

let add_keyed t ~time ~u ~v value =
  if t.size + 1 >= Array.length t.times then grow t value;
  let h = t.size + 1 in
  let keys = t.keys in
  let slot = keys.((3 * h) + 2) in
  t.values.(slot) <- value;
  t.times.(0) <- time;
  keys.(0) <- u;
  keys.(1) <- v;
  keys.(2) <- slot;
  t.size <- h;
  sift_up t h

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let last = t.size in
  (* the head's slot field *)
  let slot = t.keys.((3 * 1) + 2) in
  let value = t.values.(slot) in
  move t ~src:last ~dst:0;
  t.keys.((3 * last) + 2) <- slot;
  t.size <- last - 1;
  if t.size > 0 then sift_down t 1;
  value

(* inlined, the float result stays unboxed at the call site; called out of
   line (any build with -opaque, such as dune's dev profile) it boxes, so
   the engine reads it once per event and passes the time on *)
let[@inline] next_time t = if t.size = 0 then infinity else t.times.(1)

let is_empty t = t.size = 0

(* Binary min-heap over (time, u, v), stored flat: an unboxed
   [float array] of times, int arrays for the canonical key, and one
   value array — parallel columns indexed by heap slot.  A comparison
   reads only the columns, never a separately allocated entry.
   Scheduling allocates nothing once the columns have grown to the
   queue's working size, and neither does firing, which returns the bare
   value (the caller reads the time with [next_time] first).

   Slot 0 is a staging slot: [add_keyed] writes the new entry there and
   [pop] moves the displaced last entry there; the sifts then walk a hole
   through the heap, comparing against the staged entry, and write it
   into its final slot once.  The heap proper occupies slots [1 .. size]
   (the parent of slot [i] is [i / 2]).

   The (u, v) pair is a caller-supplied canonical key, unique among the
   entries: the engine's keys make execution order at equal timestamps a
   function of the simulation, not of insertion order. *)

(* Scheduling and firing are the simulator's inner loop; rdt_lint holds
   the named functions to alloc/*. *)
[@@@lint.zero_alloc_hot
  "less" "move" "sift_up" "sift_down" "add_keyed" "pop"]

type 'a t = {
  mutable times : float array;
  mutable us : int array;
  mutable vs : int array;
  (* slots past [size] keep the values last moved through them until they
     are overwritten, so a queue retains at most its capacity in stale
     values *)
  mutable values : 'a array;
  mutable size : int;
}

let create () = { times = [||]; us = [||]; vs = [||]; values = [||]; size = 0 }

(* slot [i] sorts before slot [j] *)
let[@inline] less t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  if ti <> tj then ti < tj
  else
    let ui = t.us.(i) and uj = t.us.(j) in
    if ui <> uj then ui < uj else t.vs.(i) < t.vs.(j)

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.us.(dst) <- t.us.(src);
  t.vs.(dst) <- t.vs.(src);
  t.values.(dst) <- t.values.(src)

(* double every column, keeping the heap slots [1 .. size]; [filler]
   initializes the fresh value slots.  The amortized doubling path, and
   the one allocation the queue makes, so it is outside the hot set. *)
let grow t filler =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0 in
  let us = Array.make cap 0 in
  let vs = Array.make cap 0 in
  let values = Array.make cap filler in
  (* a never-grown queue has empty columns, which have no slot 1 *)
  if t.size > 0 then begin
    Array.blit t.times 1 times 1 t.size;
    Array.blit t.us 1 us 1 t.size;
    Array.blit t.vs 1 vs 1 t.size;
    Array.blit t.values 1 values 1 t.size
  end;
  t.times <- times;
  t.us <- us;
  t.vs <- vs;
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
  t.times.(0) <- time;
  t.us.(0) <- u;
  t.vs.(0) <- v;
  t.values.(0) <- value;
  t.size <- t.size + 1;
  sift_up t t.size

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let value = t.values.(1) in
  move t ~src:t.size ~dst:0;
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t 1;
  value

(* inlined, the float result stays unboxed at the call site; called out of
   line (any build with -opaque, such as dune's dev profile) it boxes, so
   the engine reads it once per event and passes the time on *)
let[@inline] next_time t = if t.size = 0 then infinity else t.times.(1)

let is_empty t = t.size = 0

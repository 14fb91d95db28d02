(* In-memory span recorder for the traced pass.

   A span is one timed call across a layer boundary: the benchmark wraps
   a public seam (a middleware hook, a store backend, a protocol
   instance) and records [name, start_ns, end_ns, parent, run_id].
   Spans stay in memory and are written out once, when the run ends.

   Every call through a seam is counted; a seam whose calls take well
   under a microsecond timestamps only one call in [period], so the
   clock reads stay a bounded share of the work they measure.  Self
   time is a span's duration minus the durations of the spans nested
   directly inside it.  Nesting is tracked for timed calls only, so a
   sampled seam must never enclose another seam's timed call: the sim
   workloads sample the collector hooks only when the store has no disk
   backend, i.e. when no store span can nest inside them. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type seam = {
  name : string;
  idx : int;  (** index into [t.names] *)
  period : int;  (** timestamp one call in [period]; 1 = every call *)
  mutable countdown : int;
  mutable calls : int;
  mutable timed : int;
  mutable span_ns : int;  (** summed duration of the timed calls *)
  mutable self_ns : int;  (** ... minus their directly nested spans *)
  mutable top_ns : int;  (** duration of timed calls directly under a root *)
}

type t = {
  mutable names : string array;
  mutable runs : string list;  (** run ids, newest first *)
  mutable run : int;  (** index of the current run id *)
  (* one row per span, columns grown together *)
  mutable r_name : int array;
  mutable r_start : int array;
  mutable r_end : int array;
  mutable r_parent : int array;
  mutable r_run : int array;
  mutable rows : int;
  (* open timed spans: [stack.(d)] is the row at depth [d], [child.(d)]
     the time its finished children took *)
  stack : int array;
  child : int array;
  mutable depth : int;
}

let max_depth = 16

let create () =
  {
    names = [||];
    runs = [];
    run = -1;
    r_name = [||];
    r_start = [||];
    r_end = [||];
    r_parent = [||];
    r_run = [||];
    rows = 0;
    stack = Array.make max_depth (-1);
    child = Array.make max_depth 0;
    depth = -1;
  }

let name_index t name =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| name |];
      i
    end
    else if String.equal t.names.(i) name then i
    else find (i + 1)
  in
  find 0

let seam t name ~period =
  {
    name;
    idx = name_index t name;
    period;
    countdown = period;
    calls = 0;
    timed = 0;
    span_ns = 0;
    self_ns = 0;
    top_ns = 0;
  }

let begin_run t id =
  t.runs <- id :: t.runs;
  t.run <- List.length t.runs - 1

let grow a fill =
  let b = Array.make (max 1024 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_row t name_idx ~parent =
  if t.rows = Array.length t.r_name then begin
    t.r_name <- grow t.r_name 0;
    t.r_start <- grow t.r_start 0;
    t.r_end <- grow t.r_end 0;
    t.r_parent <- grow t.r_parent (-1);
    t.r_run <- grow t.r_run 0
  end;
  let id = t.rows in
  t.rows <- id + 1;
  t.r_name.(id) <- name_idx;
  t.r_parent.(id) <- parent;
  t.r_run.(id) <- t.run;
  id

(* A finished span whose times were taken elsewhere (the live arm's log
   line timestamps).  Returns its id, for use as a parent. *)
let add t ~name ~start ~stop ~parent =
  let id = new_row t (name_index t name) ~parent in
  t.r_start.(id) <- start;
  t.r_end.(id) <- stop;
  id

(* Roots bracket a whole run; seam spans opened meanwhile nest under it. *)
let enter_root t name =
  let id = new_row t (name_index t name) ~parent:(-1) in
  t.depth <- 0;
  t.stack.(0) <- id;
  t.child.(0) <- 0;
  t.r_start.(id) <- now_ns ();
  id

let leave_root t id =
  t.r_end.(id) <- now_ns ();
  t.depth <- -1;
  t.r_end.(id) - t.r_start.(id)

(* [enter] returns the row of a timed call, or -1 for an untimed one;
   hand the result to [leave]. *)
let enter t s =
  s.calls <- s.calls + 1;
  s.countdown <- s.countdown - 1;
  if s.countdown > 0 then -1
  else begin
    s.countdown <- s.period;
    let parent = if t.depth >= 0 then t.stack.(t.depth) else -1 in
    let id = new_row t s.idx ~parent in
    t.depth <- t.depth + 1;
    t.stack.(t.depth) <- id;
    t.child.(t.depth) <- 0;
    t.r_start.(id) <- now_ns ();
    id
  end

let leave t s id =
  if id >= 0 then begin
    let stop = now_ns () in
    t.r_end.(id) <- stop;
    let dur = stop - t.r_start.(id) in
    let nested = t.child.(t.depth) in
    t.depth <- t.depth - 1;
    if t.depth >= 0 then t.child.(t.depth) <- t.child.(t.depth) + dur;
    s.timed <- s.timed + 1;
    s.span_ns <- s.span_ns + dur;
    s.self_ns <- s.self_ns + dur - nested;
    if t.depth = 0 then s.top_ns <- s.top_ns + dur
  end

(* Sampled totals scaled up to every call. *)
let scale s = if s.timed = 0 then 0.0 else float s.calls /. float s.timed
let self_s s = float s.self_ns *. scale s *. 1e-9
let top_s s = float s.top_ns *. scale s *. 1e-9
let ns_per_call s = if s.timed = 0 then 0.0 else float s.span_ns /. float s.timed

(* Durations (ns) of every recorded span called [name]. *)
let durations t name =
  let idx = name_index t name in
  let acc = ref [] in
  for i = t.rows - 1 downto 0 do
    if t.r_name.(i) = idx then acc := (t.r_end.(i) - t.r_start.(i)) :: !acc
  done;
  Array.of_list !acc

let header = "id,name,start_ns,end_ns,parent,run_id"

let write_csv t path =
  let runs = Array.of_list (List.rev t.runs) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc header;
      output_char oc '\n';
      for i = 0 to t.rows - 1 do
        Printf.fprintf oc "%d,%s,%d,%d,%d,%s\n" i t.names.(t.r_name.(i))
          t.r_start.(i) t.r_end.(i) t.r_parent.(i)
          (if t.r_run.(i) >= 0 then runs.(t.r_run.(i)) else "")
      done)

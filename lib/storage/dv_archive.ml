module Vec = Rdt_sim.Vec
module Int_column = Rdt_sim.Int_column

(* One process's archive, index by index:
   - a key (every [key_period]-th index, and the first index after a
     restore gap) keeps its vector by reference in [keys];
   - a delta keeps only the entries that differ from the previous
     index's vector, each packed as [value * n + j] into [cells] (the
     index before a delta is always present);
   - [desc] holds one descriptor per index, [x lsl 2 lor kind]: a key's
     [x] is its slot in [keys]; a delta's and an absent index's [x] is
     the length of [cells] once the index was recorded, so a delta's
     cells run from the previous index's end to its own. *)
let key_period = 32

let kind_delta = 0
let kind_key = 1
let kind_absent = 2

type t = {
  me : int;
  mutable n : int;  (* vector width; 0 until the first record *)
  desc : Int_column.t;
  cells : Int_column.t;
  keys : int array Vec.t;
  (* the vector at [last_index], by reference; [[||]] when that index is
     absent or the archive is empty, so the next record is a key *)
  mutable prev : int array;
}

let create ~me =
  {
    me;
    n = 0;
    desc = Int_column.create ();
    cells = Int_column.create ();
    keys = Vec.create ();
    prev = [||];
  }

let count t = Int_column.length t.desc
let last_index t = count t - 1
let desc t i = Int_column.get t.desc i
let kind d = d land 3
let payload d = d lsr 2

(* The length of [cells] once index [i] was recorded; a key adds no
   cells. *)
let rec cells_end t i =
  if i < 0 then 0
  else
    let d = desc t i in
    if kind d = kind_key then cells_end t (i - 1) else payload d

let push_desc t kind x = Int_column.push t.desc ((x lsl 2) lor kind)

let reject t fmt =
  Printf.ksprintf
    (fun s -> invalid_arg (Printf.sprintf "Dv_archive.record: p%d %s" t.me s))
    fmt

let record t ~index ~dv =
  if index <> count t then reject t "expected index %d, got %d" (count t) index;
  let n = Array.length dv in
  if t.n = 0 then
    if n = 0 then reject t "got an empty vector" else t.n <- n
  else if n <> t.n then reject t "expected %d entries, got %d" t.n n;
  let prev = t.prev in
  if index land (key_period - 1) = 0 || Array.length prev = 0 then begin
    push_desc t kind_key (Vec.length t.keys);
    Vec.push t.keys dv
  end
  else begin
    (* a packed [value * n + j] must fit an int *)
    let max_value = (max_int - (n - 1)) / n in
    let mark = Int_column.length t.cells in
    for j = 0 to n - 1 do
      let v = dv.(j) in
      if v <> prev.(j) then begin
        if v < 0 || v > max_value then begin
          Int_column.truncate t.cells mark;
          reject t "changed entry %d out of range" j
        end;
        Int_column.push t.cells ((v * n) + j)
      end
    done;
    push_desc t kind_delta (Int_column.length t.cells)
  end;
  t.prev <- dv

let restore ~me ~entries =
  let t = create ~me in
  List.iter
    (fun (index, dv) ->
      if index < count t then
        invalid_arg "Dv_archive.restore: entries must have ascending indices";
      if index > count t then begin
        for _ = count t to index - 1 do
          push_desc t kind_absent (Int_column.length t.cells)
        done;
        t.prev <- [||]
      end;
      record t ~index ~dv)
    entries;
  t

(* The vector at present index [index]: its key's copy with the deltas up
   to [index] applied in order. *)
let rebuild t index =
  let k = ref index in
  while kind (desc t !k) <> kind_key do
    decr k
  done;
  let v = Array.copy (Vec.get t.keys (payload (desc t !k))) in
  let n = t.n in
  let from = ref (cells_end t !k) in
  for i = !k + 1 to index do
    let upto = payload (desc t i) in
    for p = !from to upto - 1 do
      let c = Int_column.get t.cells p in
      let value = c / n in
      v.(c - (value * n)) <- value
    done;
    from := upto
  done;
  v

let find t ~index =
  if index < 0 || index >= count t || kind (desc t index) = kind_absent then
    None
  else Some (rebuild t index)

let truncate_above t ~index =
  if index < -1 then invalid_arg "Dv_archive.truncate_above: index below -1";
  if index < last_index t then begin
    (* keys are in index order: the first key past [index] is the first
       one to drop *)
    let i = ref (index + 1) in
    while !i < count t && kind (desc t !i) <> kind_key do
      incr i
    done;
    if !i < count t then Vec.truncate t.keys (payload (desc t !i));
    Int_column.truncate t.cells (cells_end t index);
    Int_column.truncate t.desc (index + 1);
    t.prev <- (match find t ~index with Some v -> v | None -> [||])
  end

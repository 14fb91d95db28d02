module Vec = Rdt_sim.Vec

(* One slot per index: the archive's own copy of the vector, or [[||]] for an
   index in a {!restore} gap ([record] refuses an empty vector, so the two
   cannot be confused). *)
type t = {
  me : int;
  mutable n : int;  (* vector width; 0 until the first record *)
  dvs : int array Vec.t;
}

let create ~me = { me; n = 0; dvs = Vec.create () }
let count t = Vec.length t.dvs
let last_index t = count t - 1

let reject t fmt =
  Printf.ksprintf
    (fun s -> invalid_arg (Printf.sprintf "Dv_archive.record: p%d %s" t.me s))
    fmt

(* [dv] becomes the archive's own *)
let push t ~index ~dv =
  if index <> count t then reject t "expected index %d, got %d" (count t) index;
  let n = Array.length dv in
  if t.n = 0 then
    if n = 0 then reject t "got an empty vector" else t.n <- n
  else if n <> t.n then reject t "expected %d entries, got %d" t.n n;
  Vec.push t.dvs dv

let record t ~index ~dv = push t ~index ~dv:(Array.copy dv)

let restore ~me ~entries =
  let t = create ~me in
  List.iter
    (fun (index, dv) ->
      if index < count t then
        invalid_arg "Dv_archive.restore: entries must have ascending indices";
      for _ = count t to index - 1 do
        Vec.push t.dvs [||]
      done;
      push t ~index ~dv)
    entries;
  t

(* a copy: the archived array stays the archive's *)
let find t ~index =
  if index < 0 || index >= count t then None
  else
    let dv = Vec.get t.dvs index in
    if Array.length dv = 0 then None else Some (Array.copy dv)

let truncate_above t ~index =
  if index < -1 then invalid_arg "Dv_archive.truncate_above: index below -1";
  Vec.truncate t.dvs (index + 1)

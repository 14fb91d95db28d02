module Vec = Rdt_sim.Vec

type t = { me : int; vectors : int array Vec.t }

(* Gap sentinel for [restore]: a crash loses the vectors of eliminated
   checkpoints (only retained entries are on disk), and a real DV always
   has [n >= 2] slots, so the empty array can mark the holes. *)
let absent : int array = [||]

let create ~me = { me; vectors = Vec.create () }
let me t = t.me

let restore ~me ~entries =
  let t = create ~me in
  List.iter
    (fun (index, dv) ->
      if index < Vec.length t.vectors then
        invalid_arg "Dv_archive.restore: entries must have ascending indices";
      while Vec.length t.vectors < index do
        Vec.push t.vectors absent
      done;
      Vec.push t.vectors (Array.copy dv))
    entries;
  t

let record_shared t ~index ~dv =
  if index <> Vec.length t.vectors then
    invalid_arg
      (Printf.sprintf "Dv_archive.record: p%d expected index %d, got %d" t.me
         (Vec.length t.vectors) index);
  Vec.push t.vectors dv

let record t ~index ~dv = record_shared t ~index ~dv:(Array.copy dv)

let truncate_above t ~index = Vec.truncate t.vectors (index + 1)

let last_index t = Vec.length t.vectors - 1

let find t ~index =
  if index < 0 || index >= Vec.length t.vectors then None
  else
    let dv = Vec.get t.vectors index in
    if dv == absent then None else Some dv

let count t = Vec.length t.vectors

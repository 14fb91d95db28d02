type point = { time : float; value : float }

type t = { name : string; mutable rev_points : point list; mutable len : int }

let create ~name = { name; rev_points = []; len = 0 }

let add t ~time ~value =
  t.rev_points <- { time; value } :: t.rev_points;
  t.len <- t.len + 1

let add_int t ~time ~value = add t ~time ~value:(float_of_int value)

let points t = List.rev t.rev_points
let length t = t.len
let values t = List.rev_map (fun p -> p.value) t.rev_points
let stats t = Stats.of_list (values t)

let max_value t =
  List.fold_left (fun acc p -> Float.max acc p.value) neg_infinity t.rev_points

let pp ppf t =
  Format.fprintf ppf "@[<v>%s:" t.name;
  List.iter
    (fun p -> Format.fprintf ppf "@,  t=%-8.2f v=%g" p.time p.value)
    (points t);
  Format.fprintf ppf "@]"

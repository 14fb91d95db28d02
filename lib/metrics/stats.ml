type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
}

let create () = { count = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let add_int t x = add t (float_of_int x)

let mean t = if t.count = 0 then 0.0 else t.mean

let stddev t =
  if t.count < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.count - 1))

let of_list l =
  let t = create () in
  List.iter (add t) l;
  t

let percentile l ~p =
  if List.is_empty l then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = List.sort compare l in
  let arr = Array.of_list sorted in
  let len = Array.length arr in
  let rank =
    int_of_float (ceil (p /. 100.0 *. float_of_int len)) - 1
  in
  arr.(max 0 (min (len - 1) rank))

(* One workload's outcome: the correctness checks it ran, the work it
   attempted and failed, and every metric it measured — plus the order
   statistics the metrics are built from. *)

type check = { check : string; ok : bool; detail : string }

type t = {
  workload : string;
  seed : int;
  scale : string;
  traced : bool;
  attempted : int;
  failed : int;
  checks : check list;
  metrics : (string * float) list;  (** catalog names, in report order *)
}

let correct r = List.for_all (fun c -> c.ok) r.checks

let check name ok detail = { check = name; ok; detail }

(* One entry per check name, in first-seen order: a check repeated over
   several runs passes when every instance passed, and keeps the detail
   of its first failure. *)
let merge_checks cs =
  let names =
    List.fold_left
      (fun acc c -> if List.mem c.check acc then acc else acc @ [ c.check ])
      [] cs
  in
  List.map
    (fun name ->
      let same = List.filter (fun c -> String.equal c.check name) cs in
      match List.find_opt (fun c -> not c.ok) same with
      | Some failed -> failed
      | None -> List.hd same)
    names

(* --- order statistics --------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank: the smallest sample with at least [p] of the samples at
   or below it *)
let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes
   them (the default "exclusive" method), so the spread printed here is
   the one an outside reader recomputes from the same values. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float (4 - delta)) +. (d.(j) *. float delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* --- rendering ------------------------------------------------------------ *)

let unit_of name = (Catalog.find name).Catalog.unit_

let pp_value f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

(* The one-command output: [workload metric value unit], one per line. *)
let print_lines oc r =
  List.iter
    (fun (name, v) ->
      Printf.fprintf oc "%s %s %s %s\n" r.workload name (pp_value v)
        (unit_of name))
    r.metrics;
  List.iter
    (fun c ->
      if not c.ok then
        Printf.fprintf oc "%s FAILED-CHECK %s: %s\n" r.workload c.check c.detail)
    r.checks;
  flush oc

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float r.seed));
      ("scale", Json.Str r.scale);
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float r.attempted));
      ("failed", Json.Num (float r.failed));
      ( "checks",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [ ("name", Json.Str c.check); ("ok", Json.Bool c.ok);
                   ("detail", Json.Str c.detail) ])
             r.checks) );
      ( "metrics",
        Json.Arr
          (List.map
             (fun (name, v) ->
               let i = Catalog.find name in
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("value", Json.Num v);
                   ("unit", Json.Str i.Catalog.unit_);
                   ( "kind",
                     Json.Str
                       (match i.Catalog.kind with
                       | Catalog.End_to_end -> "end_to_end"
                       | Catalog.Per_layer -> "per_layer") );
                 ])
             r.metrics) );
    ]

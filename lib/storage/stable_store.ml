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

module Int_map = Map.Make (Int)

type t = {
  me : int;
  mutable backend : backend option;
  mutable entries : entry Int_map.t;
  mutable stored_total : int;
  mutable eliminated_total : int;
  mutable peak_count : int;
}

let create ~me =
  {
    me;
    backend = None;
    entries = Int_map.empty;
    stored_total = 0;
    eliminated_total = 0;
    peak_count = 0;
  }

let set_backend t backend = t.backend <- Some backend

let restore ~me ~entries =
  let t = create ~me in
  List.iter
    (fun entry ->
      if entry.index <= (match Int_map.max_binding_opt t.entries with
                         | None -> -1
                         | Some (i, _) -> i)
      then invalid_arg "Stable_store.restore: entries not ascending";
      t.entries <- Int_map.add entry.index entry t.entries)
    entries;
  t.stored_total <- Int_map.cardinal t.entries;
  t.peak_count <- Int_map.cardinal t.entries;
  t

let last_index t =
  match Int_map.max_binding_opt t.entries with
  | None -> -1
  | Some (index, _) -> index

let store_from t ~index ~dv ~now ~size_bytes ?(payload = 0) () =
  if index <= last_index t then
    invalid_arg
      (Printf.sprintf
         "Stable_store.store_from: p%d writing s^%d but already holds s^%d" t.me
         index (last_index t));
  (* the single store-boundary copy: the entry owns its snapshot of the
     borrowed vector and never mutates it afterwards *)
  let entry =
    { index; dv = Array.copy dv; taken_at = now; size_bytes; payload }
  in
  t.entries <- Int_map.add index entry t.entries;
  t.stored_total <- t.stored_total + 1;
  t.peak_count <- max t.peak_count (Int_map.cardinal t.entries);
  (match t.backend with Some b -> b.b_store entry | None -> ());
  entry

let eliminate t ~index =
  match Int_map.find_opt index t.entries with
  | None ->
    invalid_arg
      (Printf.sprintf "Stable_store.eliminate: p%d does not hold s^%d" t.me
         index)
  | Some entry ->
    t.entries <- Int_map.remove index t.entries;
    t.eliminated_total <- t.eliminated_total + 1;
    (match t.backend with Some b -> b.b_eliminate entry | None -> ())

let truncate_above t ~index =
  let below, at, above = Int_map.split index t.entries in
  let removed = Int_map.cardinal above in
  t.entries <- Option.fold at ~none:below ~some:(fun e -> Int_map.add index e below);
  t.eliminated_total <- t.eliminated_total + removed;
  (* one truncation record, not one tombstone per checkpoint: a rollback
     is a single durable event *)
  if removed > 0 then
    (match t.backend with Some b -> b.b_truncate_above ~index | None -> ());
  removed

let mem t ~index = Int_map.mem index t.entries
let find t ~index = Int_map.find_opt index t.entries
let retained t = List.map snd (Int_map.bindings t.entries)
let retained_indices t = List.map fst (Int_map.bindings t.entries)
let count t = Int_map.cardinal t.entries

let stats t =
  {
    stored_total = t.stored_total;
    eliminated_total = t.eliminated_total;
    peak_count = t.peak_count;
  }

let pp ppf t =
  Format.fprintf ppf "p%d:{%a}" t.me
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (retained_indices t)

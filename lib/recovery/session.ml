module Middleware = Rdt_protocols.Middleware
module Global_gc = Rdt_gc.Global_gc
module Stable_store = Rdt_storage.Stable_store
module Dependency_vector = Rdt_causality.Dependency_vector

type knowledge = [ `Global | `Causal ]

type report = {
  faulty : int list;
  line : int array;
  rolled_back : int list;
  checkpoints_rolled_back : int;
}

type handle = {
  snapshot : unit -> Global_gc.snapshot;
  rollback : to_index:int -> li:int array option -> unit;
  release : li:int array -> unit;
}

let snapshot_of mw =
  {
    Global_gc.entries = Array.of_list (Stable_store.retained (Middleware.store mw));
    live_dv = Dependency_vector.to_array (Middleware.dv mw);
  }

let in_memory ~release mw =
  {
    snapshot = (fun () -> snapshot_of mw);
    rollback = (fun ~to_index ~li -> Middleware.rollback mw ~to_index ~li);
    release;
  }

let run handles ~faulty ~knowledge =
  let n = Array.length handles in
  let snapshots = Array.map (fun h -> h.snapshot ()) handles in
  let line = Recovery_line.from_snapshots snapshots ~faulty in
  (* last_s + 1 per process, from the last entry of its snapshot *)
  let last_li = Global_gc.last_interval_vector snapshots in
  (* LI in the post-rollback CCP: rolled-back processes end at their line
     component, the others keep their last stable checkpoint *)
  let li = Array.init n (fun j -> min (line.(j) + 1) last_li.(j)) in
  let rolled_back = ref [] and undone = ref 0 in
  for i = 0 to n - 1 do
    undone := !undone + (last_li.(i) - line.(i));
    if line.(i) < last_li.(i) then begin
      rolled_back := i :: !rolled_back;
      handles.(i).rollback ~to_index:line.(i)
        ~li:(match knowledge with `Global -> Some li | `Causal -> None)
    end
    else begin
      match knowledge with
      | `Global -> handles.(i).release ~li
      | `Causal -> ()
    end
  done;
  {
    faulty;
    line;
    rolled_back = List.rev !rolled_back;
    checkpoints_rolled_back = !undone;
  }

let pp_report ppf r =
  let pp_ints ppf l =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      Format.pp_print_int ppf l
  in
  Format.fprintf ppf
    "@[<h>recovery: faulty={%a} line=(%a) rolled_back={%a} undone=%d@]"
    pp_ints r.faulty pp_ints
    (Array.to_list r.line)
    pp_ints r.rolled_back r.checkpoints_rolled_back

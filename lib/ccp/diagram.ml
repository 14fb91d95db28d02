let cell_of_event ev =
  let payload = Trace.View.payload ev in
  match Trace.View.tag ev with
  | Trace.Checkpoint -> Printf.sprintf "[%d]" payload
  | Trace.Send -> Printf.sprintf "m%d>" payload
  | Trace.Receive -> Printf.sprintf ">m%d" payload

let render ?(max_events = 64) trace =
  let total = Trace.length trace in
  let skip = total - max_events in
  (* the last [max_events] events, as (owner, cell) in sequence order *)
  let cells = ref [] and i = ref 0 in
  Trace.iter trace (fun ev ->
      if !i >= skip then cells := (Trace.View.pid ev, cell_of_event ev) :: !cells;
      incr i);
  let cells = List.rev !cells in
  let n = Trace.n trace in
  let width =
    List.fold_left (fun acc (_, c) -> max acc (String.length c)) 3 cells
  in
  let pad c = c ^ String.make (width - String.length c + 1) ' ' in
  let buffer = Buffer.create 1024 in
  if total > max_events then
    Buffer.add_string buffer
      (Printf.sprintf "... (%d earlier events omitted)\n" (total - max_events));
  for pid = 0 to n - 1 do
    Buffer.add_string buffer (Printf.sprintf "p%-2d " pid);
    List.iter
      (fun (owner, cell) ->
        Buffer.add_string buffer
          (if owner = pid then pad cell else String.make (width + 1) ' '))
      cells;
    Buffer.add_char buffer '\n'
  done;
  Buffer.contents buffer

let print ?max_events trace = print_string (render ?max_events trace)

module Middleware = Rdt_protocols.Middleware
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Stable_store = Rdt_storage.Stable_store
module Dependency_vector = Rdt_causality.Dependency_vector
module Trace = Rdt_ccp.Trace
module Ccp = Rdt_ccp.Ccp
module Session = Rdt_recovery.Session
module Process_stack = Rdt_recovery.Process_stack

type op =
  | Checkpoint of int
  | Send of { id : int; src : int; dst : int }
  | Deliver of int
  | Drop of int
  | Crash of int list

type t = {
  n : int;
  trace : Trace.t;
  stacks : Process_stack.t array;
  knowledge : Session.knowledge;
  (* op message id -> destination and payload, while in flight *)
  in_flight : (int, int * Middleware.message) Hashtbl.t;
  mutable crashes : int;
  mutable clock : float;
}

let create ?(knowledge = `Global) ?store_of ~n ~protocol ~with_lgc () =
  let trace = Trace.create ~n in
  let stacks =
    Array.init n (fun me ->
        let store = Option.map (fun f -> f ~me) store_of in
        Process_stack.create ~n ~me ~protocol ~trace ?store ~with_lgc ())
  in
  {
    n;
    trace;
    stacks;
    knowledge;
    in_flight = Hashtbl.create 16;
    crashes = 0;
    clock = 0.0;
  }

let n t = t.n
let stack t pid = t.stacks.(pid)
let middleware t pid = Process_stack.middleware t.stacks.(pid)
let collector t pid = Process_stack.collector t.stacks.(pid)

let advances_clock = function Drop _ -> false | _ -> true

let take t id =
  match Hashtbl.find_opt t.in_flight id with
  | Some m ->
    Hashtbl.remove t.in_flight id;
    m
  | None ->
    invalid_arg (Printf.sprintf "Script.apply: message %d is not in flight" id)

let apply t op =
  if advances_clock op then t.clock <- t.clock +. 1.0;
  let now = t.clock in
  match op with
  | Checkpoint pid ->
    Middleware.basic_checkpoint (middleware t pid) ~now;
    None
  | Send { id; src; dst } ->
    if Hashtbl.mem t.in_flight id then
      invalid_arg
        (Printf.sprintf "Script.apply: message %d is already in flight" id);
    Hashtbl.replace t.in_flight id
      (dst, Middleware.prepare_send (middleware t src) ~dst ~now);
    None
  | Deliver id ->
    let dst, payload = take t id in
    Middleware.receive (middleware t dst) payload ~now;
    None
  | Drop id ->
    ignore (take t id);
    None
  | Crash faulty ->
    if List.is_empty faulty then invalid_arg "Script.apply: empty faulty set";
    List.iter
      (fun pid ->
        if pid < 0 || pid >= t.n then invalid_arg "Script.apply: bad pid")
      faulty;
    (* the stop-world session discards every in-transit message (the CCP
       excludes lost and in-transit messages) *)
    Hashtbl.reset t.in_flight;
    t.crashes <- t.crashes + 1;
    Some (Process_stack.session t.stacks ~faulty ~knowledge:t.knowledge)

let checkpoint t pid = ignore (apply t (Checkpoint pid))

(* a transfer's message is in flight only within the call, so one
   reserved id serves every transfer *)
let transfer_id = min_int

let transfer t ~src ~dst =
  ignore (apply t (Send { id = transfer_id; src; dst }));
  ignore (apply t (Deliver transfer_id))

let crash_count t = t.crashes
let store t pid = Process_stack.store t.stacks.(pid)
let dv t pid = Dependency_vector.to_array (Middleware.dv (middleware t pid))

let uc t pid =
  match collector t pid with
  | Some lgc -> Rdt_lgc.uc_view lgc
  | None -> invalid_arg "Script.uc: no collector attached"

let retained t pid = Stable_store.retained_indices (store t pid)
let trace t = t.trace
let ccp t = Ccp.of_trace t.trace
let forced_taken t pid = Middleware.forced_count (middleware t pid)

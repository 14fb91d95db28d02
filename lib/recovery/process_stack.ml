module Middleware = Rdt_protocols.Middleware
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Stable_store = Rdt_storage.Stable_store
module Log_store = Rdt_store.Log_store

type t = {
  mw : Middleware.t;
  lgc : Rdt_lgc.t option;
  log : Log_store.t option;
}

(* The collector must see the store exactly as the middleware left it:
   [s^0] alone on a fresh start, the recovered checkpoints on a respawn.
   Attaching before returning means no hook can fire unobserved. *)
let with_collector ~with_lgc ~make ~n ~me mw log =
  let lgc =
    if with_lgc then
      Some (make ~me ~store:(Middleware.store mw) ~dv:(Middleware.dv mw) ~n)
    else None
  in
  Option.iter (fun lgc -> Rdt_lgc.attach lgc mw) lgc;
  { mw; lgc; log }

let durable_store ~me ?(wrap = Fun.id) log =
  let store = Stable_store.create ~me in
  Stable_store.set_backend store (wrap (Log_store.backend log));
  store

let create ~n ~me ~protocol ~trace ?ckpt_bytes ?store ?log ~with_lgc () =
  let store =
    match (store, log) with
    | Some _, _ | None, None -> store
    | None, Some log -> Some (durable_store ~me log)
  in
  let mw = Middleware.create ~n ~me ~protocol ~trace ?ckpt_bytes ?store () in
  with_collector ~with_lgc ~make:Rdt_lgc.create ~n ~me mw log

let restore ~n ~me ~protocol ~trace ?ckpt_bytes ~log ~with_lgc () =
  let recovered = (Log_store.recovery log).Log_store.recovered in
  let store = Stable_store.restore ~me ~entries:recovered in
  Stable_store.set_backend store (Log_store.backend log);
  let mw = Middleware.restore ~n ~me ~protocol ~trace ?ckpt_bytes ~store () in
  with_collector ~with_lgc ~make:Rdt_lgc.restore ~n ~me mw (Some log)

let recovered ~config ~pid ~dir =
  let log = Log_store.create ~config ~pid ~dir () in
  Fun.protect
    ~finally:(fun () -> Log_store.close log)
    (fun () -> (Log_store.recovery log).Log_store.recovered)

let middleware t = t.mw
let collector t = t.lgc
let store t = Middleware.store t.mw
let log_store t = t.log

let release_outdated t ~li =
  match t.lgc with Some lgc -> Rdt_lgc.release_outdated lgc ~li | None -> ()

let session stacks ~faulty ~knowledge =
  Session.run ~faulty ~knowledge
    (Array.map
       (fun t -> Session.in_memory ~release:(release_outdated t) t.mw)
       stacks)

let close t = Option.iter Log_store.close t.log

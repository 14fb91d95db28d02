module Prng = Rdt_sim.Prng

type pattern =
  | Uniform
  | Ring
  | Client_server of { servers : int }
  | Pipeline
  | Broadcast
  | Bursty of { burst : int }

let pattern_of_string s =
  match String.lowercase_ascii s with
  | "uniform" -> Some Uniform
  | "ring" -> Some Ring
  | "pipeline" -> Some Pipeline
  | "broadcast" -> Some Broadcast
  | s -> begin
    match String.split_on_char ':' s with
    | [ "client-server"; k ] -> begin
      match int_of_string_opt k with
      | Some servers when servers > 0 -> Some (Client_server { servers })
      | Some _ | None -> None
    end
    | [ "bursty"; k ] -> begin
      match int_of_string_opt k with
      | Some burst when burst > 0 -> Some (Bursty { burst })
      | Some _ | None -> None
    end
    | _ -> None
  end

let pattern_name = function
  | Uniform -> "uniform"
  | Ring -> "ring"
  | Client_server { servers } -> Printf.sprintf "client-server:%d" servers
  | Pipeline -> "pipeline"
  | Broadcast -> "broadcast"
  | Bursty { burst } -> Printf.sprintf "bursty:%d" burst

type config = {
  pattern : pattern;
  send_mean_interval : float;
  basic_ckpt_mean_interval : float;
  reply_probability : float;
}

let default =
  {
    pattern = Uniform;
    send_mean_interval = 1.0;
    basic_ckpt_mean_interval = 5.0;
    reply_probability = 0.3;
  }

(* One PRNG stream per process, derived from the supplied root by indexed
   split: each process's draws are consumed in its own deterministic
   execution order, so workload randomness is independent of how the
   engine interleaves processes. *)
type t = {
  cfg : config;
  n : int;
  streams : Prng.t array;
}

let create cfg ~n ~rng =
  if n < 2 then invalid_arg "Workload.create: need at least two processes";
  let finite_positive x = Float.is_finite x && x > 0.0 in
  if not (finite_positive cfg.send_mean_interval
          && finite_positive cfg.basic_ckpt_mean_interval)
  then invalid_arg "Workload.create: intervals must be finite and positive";
  (* written so that NaN fails *)
  if not (0.0 <= cfg.reply_probability && cfg.reply_probability <= 1.0) then
    invalid_arg "Workload.create: reply probability must lie in [0, 1]";
  (match cfg.pattern with
  | Client_server { servers } ->
    if servers <= 0 || servers >= n then
      invalid_arg "Workload.create: server count out of range"
  | Bursty { burst } ->
    if burst <= 0 then invalid_arg "Workload.create: burst must be positive"
  | Uniform | Ring | Pipeline | Broadcast -> ());
  { cfg; n; streams = Array.init n (fun me -> Prng.split_at rng ~index:me) }


let next_send_delay t ~me =
  Prng.exponential t.streams.(me) ~mean:t.cfg.send_mean_interval

let next_basic_ckpt_delay t ~me =
  Prng.exponential t.streams.(me) ~mean:t.cfg.basic_ckpt_mean_interval

let random_peer t ~me =
  let other = Prng.int t.streams.(me) (t.n - 1) in
  if other >= me then other + 1 else other

let destinations t ~me =
  match t.cfg.pattern with
  | Uniform -> [ random_peer t ~me ]
  | Bursty { burst } -> List.init burst (fun _ -> random_peer t ~me)
  | Ring -> [ (me + 1) mod t.n ]
  | Pipeline -> if me + 1 < t.n then [ me + 1 ] else []
  | Broadcast -> List.filter (fun p -> p <> me) (List.init t.n Fun.id)
  | Client_server { servers } ->
    if me < servers then begin
      (* a server spontaneously gossips to another server when possible *)
      if servers > 1 then begin
        let other = Prng.int t.streams.(me) (servers - 1) in
        [ (if other >= me then other + 1 else other) ]
      end
      else []
    end
    else [ Prng.int t.streams.(me) servers ] (* client calls a random server *)

let reply_destinations t ~me ~src =
  if src = me then []
  else if not (Prng.bernoulli t.streams.(me) ~p:t.cfg.reply_probability) then []
  else begin
    match t.cfg.pattern with
    | Uniform | Bursty _ -> [ src ]
    | Ring -> [ (me + 1) mod t.n ]
    | Pipeline -> if me + 1 < t.n then [ me + 1 ] else []
    | Broadcast -> [ src ]
    | Client_server { servers } ->
      if me < servers then [ src ] (* server answers the client *)
      else [ Prng.int t.streams.(me) servers ]
      (* client follows up with a server *)
  end

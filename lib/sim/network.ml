type config = {
  min_delay : float;
  max_delay : float;
  loss_probability : float;
  fifo : bool;
}

let default =
  { min_delay = 0.5; max_delay = 1.5; loss_probability = 0.0; fifo = false }

type t = {
  cfg : config;
  (* one independent stream per source process, derived by indexed split
     from the root: each draw is consumed in the sender's deterministic
     execution order, so channel randomness is a pure function of the
     simulation, whatever order the processes' sends interleave in *)
  streams : Prng.t array;
  n : int;
  (* last scheduled delivery time per directed channel, for FIFO order
     only ([[||]] otherwise: n² floats no other order reads); row [src]
     is only ever touched while executing [src] *)
  channel_clock : float array;
}

let create cfg ~n ~rng =
  (* each test names the good range, so that NaN fails it *)
  if not (0.0 <= cfg.min_delay && cfg.min_delay <= cfg.max_delay
          && Float.is_finite cfg.max_delay)
  then invalid_arg "Network.create: bad delay bounds";
  if not (0.0 <= cfg.loss_probability && cfg.loss_probability <= 1.0) then
    invalid_arg "Network.create: bad loss probability";
  {
    cfg;
    streams = Array.init n (fun src -> Prng.split_at rng ~index:src);
    n;
    channel_clock =
      (if cfg.fifo then Array.make (n * n) neg_infinity else [||]);
  }

let config t = t.cfg

let delivery_time t ~src ~dst ~now =
  let rng = t.streams.(src) in
  if t.cfg.loss_probability > 0.0
     && Prng.bernoulli rng ~p:t.cfg.loss_probability
  then None
  else begin
    let delay =
      if t.cfg.max_delay > t.cfg.min_delay then
        Prng.uniform_in rng ~lo:t.cfg.min_delay ~hi:t.cfg.max_delay
      else t.cfg.min_delay
    in
    let at = now +. delay in
    if t.cfg.fifo then begin
      let key = (src * t.n) + dst in
      let at = Float.max at t.channel_clock.(key) in
      t.channel_clock.(key) <- at;
      Some at
    end
    else Some at
  end

let reset_order t =
  Array.fill t.channel_clock 0 (Array.length t.channel_clock) neg_infinity

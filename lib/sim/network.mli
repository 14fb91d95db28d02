(** Message-channel model: delivery delays, loss, and optional FIFO order.

    The paper's system model is asynchronous: no bound on message delay,
    messages may be lost or delivered out of order.  This module decides,
    for each send, whether the message is lost and when it is delivered.
    All randomness comes from the [Prng.t] supplied at creation. *)

type config = {
  min_delay : float;  (** lower bound on transit time *)
  max_delay : float;  (** upper bound on transit time (uniform in between) *)
  loss_probability : float;  (** independent per-message loss probability *)
  fifo : bool;
      (** when [true], per-(src,dst)-channel delivery order matches send
          order; when [false] messages may overtake each other *)
}

val default : config
(** Non-FIFO, no loss, delays uniform in [\[0.5, 1.5)]. *)

type t

val create : config -> n:int -> rng:Prng.t -> t
(** [create config ~n ~rng] builds channel state for an [n]-process
    system.  Internally one PRNG stream per source process is derived
    from [rng] by indexed split ([rng] itself does not advance), so the
    delay/loss draws of different senders never perturb each other.
    @raise Invalid_argument unless [0 <= min_delay <= max_delay], both
    finite, and [loss_probability] lies in [\[0, 1\]]. *)

val config : t -> config

val delivery_time : t -> src:int -> dst:int -> now:float -> float option
(** [delivery_time t ~src ~dst ~now] is [None] if the message is lost,
    otherwise [Some t_deliver] with [t_deliver >= now].  Under FIFO, the
    returned times on a given channel are non-decreasing. *)

val reset_order : t -> unit
(** Forgets per-channel FIFO clocks; used when a recovery session flushes
    the network. *)

(** Synthetic application workloads.

    The paper fixes no application; what matters for checkpointing and
    garbage collection is the *shape* of the communication pattern (who
    talks to whom, how often, and how often basic checkpoints are taken).
    A workload drives two decisions in the runner: where a process sends
    when its send timer fires, and whether it replies when it receives —
    replies are what create the send/receive interleavings from which
    non-causal zigzag paths arise.

    All patterns draw from the generator they are given, so runs are
    reproducible from the seed. *)

type pattern =
  | Uniform  (** each send goes to a uniformly random peer *)
  | Ring  (** process [i] sends to [(i+1) mod n] *)
  | Client_server of { servers : int }
      (** the first [servers] processes are servers; clients send to a
          random server, servers answer their clients and spontaneously
          gossip to other servers *)
  | Pipeline  (** [i] sends to [i+1]; the last process only receives *)
  | Broadcast  (** each send goes to every other process *)
  | Bursty of { burst : int }
      (** like [Uniform], but each firing of the send timer emits a burst
          of [burst] messages to random peers — models phase-structured
          applications whose communication comes in waves *)

val pattern_of_string : string -> pattern option
(** Parses ["uniform"], ["ring"], ["client-server:<k>"], ["pipeline"],
    ["broadcast"], ["bursty:<k>"]. *)

val pattern_name : pattern -> string

type config = {
  pattern : pattern;
  send_mean_interval : float;
      (** mean of the exponential inter-send time of each process *)
  basic_ckpt_mean_interval : float;
      (** mean of the exponential time between basic checkpoints *)
  reply_probability : float;
      (** probability that receiving a message triggers an immediate
          send (per the pattern's reply rule) *)
}

val default : config

type t

val create : config -> n:int -> rng:Rdt_sim.Prng.t -> t
(** Process [me] draws from the indexed split [me] of [rng].
    @raise Invalid_argument on fewer than two processes, an interval that
    is not finite and positive, a reply probability outside [\[0, 1\]],
    or a pattern that does not fit [n]. *)

val next_send_delay : t -> me:int -> float
(** Draw the delay until process [me]'s next spontaneous send. *)

val next_basic_ckpt_delay : t -> me:int -> float
(** Draw the delay until process [me]'s next basic checkpoint. *)

val destinations : t -> me:int -> int list
(** Destinations of a spontaneous send of [me] (empty when the pattern
    gives [me] nothing to do, e.g. the pipeline sink). *)

val reply_destinations : t -> me:int -> src:int -> int list
(** Destinations to which [me] replies upon receiving from [src]
    (already includes the [reply_probability] coin flip). *)

module Prng = Rdt_sim.Prng

type kind = Short_write | Crash_before_sync | Bit_flip

exception Injected_crash of { op : int; kind : kind }

type plan = {
  fire_at : int;
  kind : kind;
  rng : Prng.t;
  mutable op : int;
  mutable fired : bool;
}

type t = plan option

let none = None

let at_op ~op ~kind ~rng =
  if op < 1 then invalid_arg "Fault.at_op: op must be >= 1";
  Some { fire_at = op; kind; rng; op = 0; fired = false }

let of_seed ~seed ~max_op =
  if max_op < 1 then invalid_arg "Fault.of_seed: max_op must be >= 1";
  let rng = Prng.create ~seed in
  let kind =
    match Prng.int rng 3 with
    | 0 -> Short_write
    | 1 -> Crash_before_sync
    | _ -> Bit_flip
  in
  at_op ~op:(1 + Prng.int rng max_op) ~kind ~rng

let kind_name = function
  | Short_write -> "short-write"
  | Crash_before_sync -> "crash-before-sync"
  | Bit_flip -> "bit-flip"

let tick = function
  | None -> None
  | Some p ->
    if p.fired then None
    else begin
      p.op <- p.op + 1;
      if p.op >= p.fire_at then begin
        p.fired <- true;
        Some (p.op, p.kind, p.rng)
      end
      else None
    end

type violation = { source : Ccp.ckpt; target : Ccp.ckpt }
type analysis = { useless : Ccp.ckpt list; violations : violation list }

(* The zigzag paths from [source] land on the checkpoints of [pid] from
   [reach.(pid)] on, and [source] precedes those from [first_preceded] on,
   so the violations on [pid] are the indices in between.  Sources and
   targets are enumerated process by process, index by index.  A source
   whose reach lands on or before itself is in a Z-cycle. *)
let analyze ?(limit = max_int) ccp =
  let useless = ref [] and acc = ref [] and count = ref 0 in
  let check ((source : Ccp.ckpt), r) =
    if r.(source.pid) <= source.index then useless := source :: !useless;
    for pid = 0 to Ccp.n ccp - 1 do
      for index = r.(pid) to Ccp.first_preceded ccp source ~pid - 1 do
        if !count < limit then begin
          acc := { source; target = { pid; index } } :: !acc;
          incr count
        end
      done
    done
  in
  Seq.iter check (Zigzag.sweep ccp);
  { useless = List.rev !useless; violations = List.rev !acc }

let violations ?limit ccp = (analyze ?limit ccp).violations
let holds ccp = List.is_empty (violations ~limit:1 ccp)

let pp_violation ppf { source; target } =
  Format.fprintf ppf "%a ~~> %a but %a -/-> %a" Ccp.pp_ckpt source Ccp.pp_ckpt
    target Ccp.pp_ckpt source Ccp.pp_ckpt target

type violation = { source : Ccp.ckpt; target : Ccp.ckpt }

(* The zigzag paths from [source] land on the checkpoints of [pid] from
   [reach.(pid)] on, and [source] precedes those from [first_preceded] on,
   so the violations on [pid] are the indices in between.  Sources and
   targets are enumerated process by process, index by index. *)
let violations ?(limit = max_int) ccp =
  let acc = ref [] in
  let count = ref 0 in
  let analyzer = Zigzag.analyzer ccp in
  let check_source source =
    if !count < limit then begin
      let r = Zigzag.reach_from analyzer ~src:source in
      for pid = 0 to Ccp.n ccp - 1 do
        for index = r.(pid) to Ccp.first_preceded ccp source ~pid - 1 do
          if !count < limit then begin
            acc := { source; target = { pid; index } } :: !acc;
            incr count
          end
        done
      done
    end
  in
  List.iter check_source (Ccp.checkpoints ccp);
  List.rev !acc

let holds ccp = List.is_empty (violations ~limit:1 ccp)

let pp_violation ppf { source; target } =
  Format.fprintf ppf "%a ~~> %a but %a -/-> %a" Ccp.pp_ckpt source Ccp.pp_ckpt
    target Ccp.pp_ckpt source Ccp.pp_ckpt target

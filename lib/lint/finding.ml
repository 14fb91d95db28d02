type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  context : string;  (* enclosing top-level binding, or "<toplevel>" *)
  message : string;
}

let compare_by_site a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let sort findings = List.sort compare_by_site findings

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s (in %s)" f.file f.line f.col f.rule
    f.message f.context

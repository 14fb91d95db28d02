type allow = {
  rule : string;  (* exact rule id or bare family name *)
  justification : string option;
  loc : Location.t;
  mutable used : bool;
}

type parsed = Allow of allow | Malformed of string * Location.t

let family_of rule =
  match String.index_opt rule '/' with
  | None -> rule
  | Some i -> String.sub rule 0 i

(* The matching core, kept pure so the qcheck properties in test_lint.ml
   can drive it directly: an allow silences a rule iff it carries a
   justification and names either the exact rule or its family. *)
let allow_matches ~allow_rule ~justified ~rule =
  justified
  && (String.equal allow_rule rule || String.equal allow_rule (family_of rule))

(* [@lint.allow "rule" "justification"] — the payload is parsed from the
   Parsetree attribute that survives into the typedtree. *)

let rec payload_strings (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some [ s ]
  | Pexp_apply (f, args) ->
    List.fold_left
      (fun acc (_, arg) ->
        match (acc, payload_strings arg) with
        | Some acc, Some ss -> Some (acc @ ss)
        | _ -> None)
      (payload_strings f) args
  | Pexp_tuple es ->
    List.fold_left
      (fun acc e ->
        match (acc, payload_strings e) with
        | Some acc, Some ss -> Some (acc @ ss)
        | _ -> None)
      (Some []) es
  | _ -> None

let strings_of_payload (p : Parsetree.payload) =
  match p with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> payload_strings e
  | PStr [] -> Some []
  | _ -> None

let parse_attribute (attr : Parsetree.attribute) =
  if not (String.equal attr.attr_name.txt "lint.allow") then None
  else
    let loc = attr.attr_loc in
    match strings_of_payload attr.attr_payload with
    | Some (rule :: rest) ->
      let justification =
        match rest with
        | [] -> None
        | ss -> Some (String.concat " " ss)
      in
      if Rules.is_known rule then
        Some (Allow { rule; justification; loc; used = false })
      else Some (Malformed ("unknown rule id " ^ rule, loc))
    | Some [] -> Some (Malformed ("[@lint.allow] without a rule id", loc))
    | None ->
      Some (Malformed ("[@lint.allow] payload must be string literals", loc))

let parse_attributes attrs = List.filter_map parse_attribute attrs

(* The dead/* family: a pass across compilation units.  Every
   implementation .cmt adds the values it references to one index, with
   paths normalised through module aliases (dune's wrapped-library
   aliases and a local [module M = X]); every [val] of an in-scope .mli,
   submodule signatures included, is then looked up in that index.  A
   unit's references to its own exports do not count. *)

open Typedtree

type t = {
  cfg : Lint_config.t;
  refs : (string, string) Hashtbl.t;
      (* normalised path -> source file of each unit referencing it: a
         value path, or the path of a module used whole (include,
         functor argument, packing), which references every value
         under it *)
  mutable exports : (string * string * string * value_description) list;
      (* path, name inside its unit, .mli source file, declaration *)
}

let create cfg = { cfg; refs = Hashtbl.create 4096; exports = [] }

(* A path rooted at a local alias is rewritten onto its target; a
   persistent root then normalises in the initial environment, whose load
   path finds the .cmi of dune's wrapped-library alias modules. *)
let normalize norm aliases path =
  let rec resolve = function
    | Path.Pident id as p -> Option.value (Hashtbl.find_opt aliases id) ~default:p
    | Path.Pdot (p, s) -> Path.Pdot (resolve p, s)
    | p -> p
  in
  let path = resolve path in
  match norm None Env.initial path with p -> p | exception _ -> path

let add_implementation t ~file (str : structure) =
  let aliases = Hashtbl.create 16 and seen = Hashtbl.create 256 in
  let record norm path =
    Hashtbl.replace seen (Path.name (normalize norm aliases path)) ()
  in
  let alias id (me : module_expr) =
    match (id, me.mod_desc, me.mod_type) with
    | Some id, Tmod_ident (p, _), Types.Mty_alias _ ->
      Hashtbl.replace aliases id (normalize Env.normalize_module_path aliases p)
    | _ -> ()
  in
  let expr sub e =
    (match e.exp_desc with
     | Texp_ident (p, _, _) -> record Env.normalize_value_path p
     | Texp_letmodule (id, _, _, me, _) -> alias id me
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_binding sub mb =
    alias mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  (* neither an alias binding (M.x is recorded as X.x) nor [open M] uses
     anything by itself *)
  let module_expr sub me =
    (match (me.mod_desc, me.mod_type) with
     | Tmod_ident _, Types.Mty_alias _ -> ()
     | Tmod_ident (p, _), _ -> record Env.normalize_module_path p
     | _ -> ());
    Tast_iterator.default_iterator.module_expr sub me
  in
  let open_declaration sub (od : open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> Tast_iterator.default_iterator.open_declaration sub od
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr;
      module_binding;
      module_expr;
      open_declaration;
    }
  in
  it.structure it str;
  Hashtbl.iter (fun key () -> Hashtbl.add t.refs key file) seen

let add_interface t ~unit ~file (sg : signature) =
  let rec items prefix (sg : signature) =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
          let name = prefix ^ vd.val_name.txt in
          t.exports <- (unit ^ "." ^ name, name, file, vd) :: t.exports
        | Tsig_module
            {
              md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ };
              _;
            } ->
          items (prefix ^ m ^ ".") sg
        | _ -> ())
      sg.sig_items
  in
  if Lint_config.in_lib t.cfg file then items "" sg

(* [@@lint.reference "why"]: an export kept for the tests on purpose *)
type reference = Justified of Location.t | Bare of Location.t

let reference_of (vd : value_description) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.attr_name.txt "lint.reference") then None
      else
        match Suppress.strings_of_payload a.attr_payload with
        | Some (_ :: _) -> Some (Justified a.attr_loc)
        | Some [] | None -> Some (Bare a.attr_loc))
    vd.val_attributes

(* "U.M.x" and its module prefixes "U" and "U.M" *)
let key_and_prefixes key =
  let rec go acc i =
    match String.index_from_opt key i '.' with
    | None -> key :: acc
    | Some j -> go (String.sub key 0 j :: acc) (j + 1)
  in
  go [] 0

let check t =
  List.concat_map
    (fun (key, name, file, (vd : value_description)) ->
      let own = Filename.remove_extension file in
      let tests, others =
        List.concat_map (Hashtbl.find_all t.refs) (key_and_prefixes key)
        |> List.filter (fun f -> Filename.remove_extension f <> own)
        |> List.sort_uniq String.compare
        |> List.partition (Lint_config.in_test t.cfg)
      in
      let finding rule severity (loc : Location.t) message =
        {
          Finding.rule;
          severity;
          file;
          line = loc.loc_start.pos_lnum;
          col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
          context = name;
          message;
        }
      in
      let dead =
        match (others, tests) with
        | _ :: _, _ -> None
        | [], [] ->
          Some
            (finding "dead/export" Finding.Error vd.val_loc
               (name ^ " is referenced by no other compilation unit; delete \
                        it or drop it from the interface"))
        | [], _ :: _ ->
          Some
            (finding "dead/test-only" Finding.Warning vd.val_loc
               (Printf.sprintf
                  "%s is referenced only from test/ (%s); delete it, drop it \
                   from the interface or justify it with [@@lint.reference]"
                  name (String.concat ", " tests)))
      in
      match (reference_of vd, dead) with
      | None, _ -> Option.to_list dead
      | Some (Justified _), Some _ -> []
      | Some (Justified loc), None ->
        [
          finding "lint/unused-allow" Finding.Warning loc
            (name ^ " has a caller outside test/; drop its [@@lint.reference]");
        ]
      | Some (Bare loc), _ ->
        finding "lint/missing-justification" Finding.Error loc
          "[@@lint.reference] needs a justification string"
        :: Option.to_list dead)
    t.exports

(* The typed-AST pass.  One [scan_structure] per compilation unit: walk
   the typedtree with a Tast_iterator, apply the four rule
   families (DESIGN.md §12) under the path scopes of [Lint_config], and
   honour [@lint.allow]/[@@@lint.zero_alloc_hot]/[@@lint.bounds_checked]
   attributes as they come into scope. *)

open Typedtree

type scan = {
  findings : Finding.t list;
  suppressed : (Finding.t * string) list;
      (* finding silenced by a justified allow, with its justification *)
}

(* ------------------------------------------------------------------ *)
(* Identifier tables                                                   *)
(* ------------------------------------------------------------------ *)

let norm_path p =
  let n = Path.name p in
  let prefix = "Stdlib." in
  if
    String.length n > String.length prefix
    && String.equal (String.sub n 0 (String.length prefix)) prefix
  then String.sub n (String.length prefix) (String.length n - String.length prefix)
  else n

let mem_name name set = List.exists (String.equal name) set

let self_init_names = [ "Random.self_init"; "Random.State.make_self_init" ]
let wall_clock_names = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]
let domain_spawn_names = [ "Domain.spawn" ]

(* any Atomic.* operation: matched by module prefix rather than an
   explicit list because the whole module is off-limits in lib/, which
   runs on one domain *)
let atomic_name name = String.length name > 7 && String.sub name 0 7 = "Atomic."

let hashtbl_order_names =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let unsafe_names =
  [
    "Array.unsafe_get";
    "Array.unsafe_set";
    "Bytes.unsafe_get";
    "Bytes.unsafe_set";
  ]

let alloc_array_names =
  [
    "Array.copy"; "Array.append"; "Array.sub"; "Array.init"; "Array.make";
    "Array.create_float"; "Array.make_matrix"; "Array.of_list";
    "Array.to_list"; "Array.of_seq"; "Array.to_seq"; "Array.to_seqi";
    "Array.map"; "Array.mapi"; "Array.map2"; "Array.concat"; "Array.split";
    "Array.combine";
  ]

let alloc_list_names =
  [
    "List.map"; "List.mapi"; "List.map2"; "List.rev"; "List.rev_map";
    "List.append"; "List.rev_append"; "List.concat"; "List.concat_map";
    "List.flatten"; "List.filter"; "List.filteri"; "List.filter_map";
    "List.partition"; "List.init"; "List.sort"; "List.stable_sort";
    "List.fast_sort"; "List.sort_uniq"; "List.merge"; "List.split";
    "List.combine"; "List.of_seq"; "List.cons"; "@";
  ]

let alloc_string_names =
  [
    "^"; "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
    "String.to_bytes"; "String.of_bytes"; "String.uppercase_ascii";
    "String.lowercase_ascii"; "String.capitalize_ascii"; "Bytes.create";
    "Bytes.make"; "Bytes.init"; "Bytes.sub"; "Bytes.copy"; "Bytes.extend";
    "Bytes.cat"; "Bytes.concat"; "Bytes.of_string"; "Bytes.to_string";
    "Printf.sprintf"; "Format.sprintf"; "Format.asprintf";
  ]

let alloc_ref_names = [ "ref" ]
let polycmp_equal_names = [ "="; "<>" ]
let polycmp_order_names = [ "compare"; "min"; "max"; "<"; ">"; "<="; ">=" ]
let polycmp_hash_names = [ "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

(* ------------------------------------------------------------------ *)
(* Type scrutiny for the polycmp family                                *)
(* ------------------------------------------------------------------ *)

let scalar_paths =
  [
    Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit;
    Predef.path_float; Predef.path_string; Predef.path_bytes;
    Predef.path_int32; Predef.path_int64; Predef.path_nativeint;
  ]

let env_of exp =
  match Envaux.env_of_only_summary exp.exp_env with
  | env -> env
  | exception _ -> Env.empty

(* A type is "scalar" when polymorphic compare on it is both correct and
   cheap: the predefined immediates plus float/string/bytes and boxed
   integers.  Type variables are skipped: a genuinely polymorphic helper
   is not an instantiation site. *)
let rec head_is_scalar env ty ~fuel =
  match Types.get_desc ty with
  | Tvar _ | Tunivar _ -> true
  | Tpoly (ty, _) -> head_is_scalar env ty ~fuel
  | Tconstr (p, _, _) ->
    List.exists (fun sp -> Path.same p sp) scalar_paths
    || fuel > 0
       && begin
         match Ctype.expand_head env ty with
         | ty' -> begin
           match Types.get_desc ty' with
           | Tconstr (p', _, _) when Path.same p p' -> false
           | _ -> head_is_scalar env ty' ~fuel:(fuel - 1)
         end
         | exception _ -> false
       end
  | _ -> false

let rec is_type_var ty =
  match Types.get_desc ty with
  | Tvar _ | Tunivar _ -> true
  | Tpoly (ty, _) -> is_type_var ty
  | _ -> false

let first_arg_type ty =
  match Types.get_desc ty with
  | Tarrow (_, arg, _, _) -> Some arg
  | _ -> None

let rec result_type ty =
  match Types.get_desc ty with
  | Tarrow (_, _, res, _) -> result_type res
  | _ -> ty

let is_function_type ty =
  match Types.get_desc ty with Tarrow _ -> true | _ -> false

let type_to_string ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> "<type>"

(* ------------------------------------------------------------------ *)
(* Traversal context                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cfg : Lint_config.t;
  file : string;
  mutable top : string;
  mutable findings : Finding.t list;
  mutable suppressed : (Finding.t * string) list;
  mutable allows : Suppress.allow list;  (* innermost first *)
  mutable all_allows : Suppress.allow list;
  mutable hot_module : bool;
  mutable hot_names : string list;
  mutable hot_depth : int;
  mutable bounds_depth : int;
  globals : (Ident.t, unit) Hashtbl.t;
  rec_ids : (Ident.t, unit) Hashtbl.t;
  mutable peeled : expression list;
}

let loc_pos (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let report ctx ~loc ~rule ~severity ~msg =
  let line, col = loc_pos loc in
  let finding =
    {
      Finding.rule;
      severity;
      file = ctx.file;
      line;
      col;
      context = ctx.top;
      message = msg;
    }
  in
  let matching =
    List.find_opt
      (fun (a : Suppress.allow) ->
        Option.is_some a.justification
        && Suppress.allow_matches ~allow_rule:a.rule ~justified:true ~rule)
      ctx.allows
  in
  match matching with
  | Some a ->
    a.used <- true;
    let why = Option.value a.justification ~default:"" in
    ctx.suppressed <- (finding, why) :: ctx.suppressed
  | None -> ctx.findings <- finding :: ctx.findings

let error ctx ~loc ~rule ~msg =
  report ctx ~loc ~rule ~severity:Finding.Error ~msg

(* Parse and activate [@lint.allow] attributes; returns how many allows
   were pushed so the caller can pop them when the scope closes. *)
let push_allows ctx (attrs : Parsetree.attributes) =
  let pushed = ref 0 in
  List.iter
    (fun parsed ->
      match parsed with
      | Suppress.Malformed (msg, loc) ->
        error ctx ~loc ~rule:"lint/bad-allow" ~msg
      | Suppress.Allow a ->
        if Option.is_none a.justification then
          error ctx ~loc:a.loc ~rule:"lint/missing-justification"
            ~msg:
              (Printf.sprintf
                 "[@lint.allow \"%s\"] needs a justification string" a.rule);
        ctx.allows <- a :: ctx.allows;
        ctx.all_allows <- a :: ctx.all_allows;
        incr pushed)
    (Suppress.parse_attributes attrs);
  !pushed

let pop_allows ctx n =
  for _ = 1 to n do
    match ctx.allows with [] -> () | _ :: rest -> ctx.allows <- rest
  done

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* ------------------------------------------------------------------ *)
(* Closure analysis                                                    *)
(* ------------------------------------------------------------------ *)

let is_lambda e = Option.is_some (Lint_compat.lambda_bodies e)

(* Mark a lambda and, through single-case chains, the lambdas that are
   really just its further curried arguments, so only genuinely nested
   closures are flagged. *)
let rec peel_chain ctx e =
  ctx.peeled <- e :: ctx.peeled;
  match Lint_compat.lambda_bodies e with
  | Some (bodies, true) ->
    List.iter (fun b -> if is_lambda b then peel_chain ctx b) bodies
  | Some (_, false) | None -> ()

let lambda_captures ctx e =
  let used = Hashtbl.create 16 in
  let bound = Hashtbl.create 16 in
  let expr_hook sub ex =
    (match ex.exp_desc with
     | Texp_ident (Path.Pident id, _, _) -> Hashtbl.replace used id ()
     | Texp_let (Recursive, vbs, _) ->
       List.iter
         (fun id -> Hashtbl.replace bound id ())
         (let_bound_idents vbs)
     | _ -> ());
    Tast_iterator.default_iterator.expr sub ex
  in
  let pat_hook : 'k. Tast_iterator.iterator -> 'k general_pattern -> unit =
   fun sub p ->
    List.iter (fun id -> Hashtbl.replace bound id ()) (pat_bound_idents p);
    Tast_iterator.default_iterator.pat sub p
  in
  let it =
    { Tast_iterator.default_iterator with expr = expr_hook; pat = pat_hook }
  in
  it.expr it e;
  Hashtbl.fold
    (fun id () acc ->
      if
        Hashtbl.mem bound id
        || Hashtbl.mem ctx.globals id
        || Hashtbl.mem ctx.rec_ids id
      then acc
      else Ident.name id :: acc)
    used []
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Per-identifier checks                                               *)
(* ------------------------------------------------------------------ *)

let check_ident ctx e path =
  let name = norm_path path in
  let loc = e.exp_loc in
  let in_lib = Lint_config.in_lib ctx.cfg ctx.file in
  (* determinism *)
  if in_lib then begin
    if mem_name name self_init_names then
      error ctx ~loc ~rule:"det/random-self-init"
        ~msg:(name ^ " seeds from the environment; use Prng with an explicit seed");
    if
      mem_name name wall_clock_names
      && not (Lint_config.in_realtime ctx.cfg ctx.file)
    then
      error ctx ~loc ~rule:"det/wall-clock"
        ~msg:(name ^ " reads the wall clock; simulated time must come from the engine");
    if mem_name name domain_spawn_names then
      error ctx ~loc ~rule:"det/domain-spawn"
        ~msg:(name ^ " spawns a domain; the library runs on one domain");
    if atomic_name name then
      error ctx ~loc ~rule:"det/atomic"
        ~msg:(name ^ " shares state across domains; the library runs on one domain");
    if
      mem_name name hashtbl_order_names
      && Lint_config.in_hashtbl_det ctx.cfg ctx.file
    then
      error ctx ~loc ~rule:"det/hashtbl-order"
        ~msg:(name ^ " visits bindings in hash order; iterate a sorted key list instead")
  end;
  (* unsafe-op hygiene *)
  if in_lib && mem_name name unsafe_names then begin
    if ctx.bounds_depth = 0 then
      error ctx ~loc ~rule:"unsafe/array"
        ~msg:(name ^ " outside a [@@lint.bounds_checked] function")
    else if not (Lint_config.unsafe_allowed ctx.cfg ctx.file) then
      error ctx ~loc ~rule:"unsafe/file"
        ~msg:(name ^ " in a file not on the unsafe-op allowlist")
  end;
  (* allocation, only on the hot path *)
  if ctx.hot_depth > 0 then begin
    if mem_name name alloc_array_names then
      error ctx ~loc ~rule:"alloc/array"
        ~msg:(name ^ " allocates a fresh array on the hot path")
    else if mem_name name alloc_list_names then
      error ctx ~loc ~rule:"alloc/list"
        ~msg:(name ^ " allocates list cells on the hot path")
    else if mem_name name alloc_string_names then
      error ctx ~loc ~rule:"alloc/string"
        ~msg:(name ^ " builds a fresh string/bytes on the hot path")
    else if mem_name name alloc_ref_names then
      error ctx ~loc ~rule:"alloc/construct"
        ~msg:"ref allocates a mutable cell on the hot path"
  end;
  (* polymorphic compare *)
  if in_lib then begin
    let poly_rule =
      if mem_name name polycmp_equal_names then Some "polycmp/equal"
      else if mem_name name polycmp_order_names then Some "polycmp/compare"
      else if mem_name name polycmp_hash_names then Some "polycmp/hash"
      else None
    in
    match poly_rule with
    | None -> ()
    | Some rule -> begin
      match first_arg_type e.exp_type with
      | None -> ()
      | Some arg ->
        let env = env_of e in
        (* a type variable is fine in a genuinely polymorphic helper, but
           on the hot path it compiles to a C call per comparison *)
        if
          is_type_var arg
          && (ctx.hot_depth > 0 || ctx.bounds_depth > 0)
          && not (String.equal rule "polycmp/hash")
        then
          error ctx ~loc ~rule:"polycmp/generic-hot"
            ~msg:
              (Printf.sprintf
                 "%s at type %s in a hot function compiles to a C call; \
                  annotate the operands' type"
                 name (type_to_string arg))
        else if not (head_is_scalar env arg ~fuel:8) then
          error ctx ~loc ~rule
            ~msg:
              (Printf.sprintf "polymorphic %s instantiated at type %s" name
                 (type_to_string arg))
    end
  end

(* ------------------------------------------------------------------ *)
(* Expression / binding traversal                                      *)
(* ------------------------------------------------------------------ *)

let rec expr_hook ctx it e =
  let pushed = push_allows ctx e.exp_attributes in
  (match e.exp_desc with
   | Texp_let (Recursive, vbs, _) ->
     List.iter
       (fun id -> Hashtbl.replace ctx.rec_ids id ())
       (let_bound_idents vbs)
   | _ -> ());
  if is_lambda e && not (List.memq e ctx.peeled) then begin
    peel_chain ctx e;
    if ctx.hot_depth > 0 then begin
      match lambda_captures ctx e with
      | [] -> ()
      | captured ->
        error ctx ~loc:e.exp_loc ~rule:"alloc/closure"
          ~msg:
            ("closure capturing " ^ String.concat ", " captured
           ^ " allocates on the hot path")
    end
  end;
  (match e.exp_desc with
   | Texp_ident (path, _, _) -> check_ident ctx e path
   | _ when ctx.hot_depth = 0 -> ()
   | Texp_tuple _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/tuple"
       ~msg:"tuple construction allocates on the hot path"
   | Texp_record _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/record"
       ~msg:"record construction allocates on the hot path"
   | Texp_array _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/array"
       ~msg:"array literal allocates on the hot path"
   | Texp_construct (_, cd, args) -> begin
     match args with
     | [] -> ()
     | _ :: _ ->
       error ctx ~loc:e.exp_loc ~rule:"alloc/construct"
         ~msg:(cd.Types.cstr_name ^ " application allocates on the hot path")
   end
   | Texp_variant (_, Some _) ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/construct"
       ~msg:"polymorphic-variant application allocates on the hot path"
   | Texp_lazy _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/construct"
       ~msg:"lazy suspension allocates on the hot path"
   | _ -> ());
  Tast_iterator.default_iterator.expr it e;
  pop_allows ctx pushed

and process_binding ctx it ~top vb =
  let name =
    match let_bound_idents [ vb ] with
    | [ id ] -> Ident.name id
    | _ -> ctx.top
  in
  let saved_top = ctx.top in
  if top then ctx.top <- name;
  let pushed = push_allows ctx vb.vb_attributes in
  let is_hot =
    has_attr "lint.zero_alloc_hot" vb.vb_attributes
    || (top && (ctx.hot_module || mem_name name ctx.hot_names))
  in
  let is_bounds = has_attr "lint.bounds_checked" vb.vb_attributes in
  if is_hot then ctx.hot_depth <- ctx.hot_depth + 1;
  if is_bounds then ctx.bounds_depth <- ctx.bounds_depth + 1;
  if is_hot && is_function_type vb.vb_pat.pat_type then begin
    let res = result_type vb.vb_pat.pat_type in
    let env = env_of vb.vb_expr in
    let is_float =
      match Types.get_desc res with
      | Tconstr (p, _, _) ->
        Path.same p Predef.path_float
        || begin
          match Ctype.expand_head env res with
          | res' -> begin
            match Types.get_desc res' with
            | Tconstr (p', _, _) -> Path.same p' Predef.path_float
            | _ -> false
          end
          | exception _ -> false
        end
      | _ -> false
    in
    if is_float then
      error ctx ~loc:vb.vb_loc ~rule:"alloc/boxed-float"
        ~msg:(name ^ " returns float; the result is boxed on every call")
  end;
  (* the outermost lambda chain of a top-level binding is the function
     itself, not a per-call closure *)
  if top && is_lambda vb.vb_expr then peel_chain ctx vb.vb_expr;
  expr_hook ctx it vb.vb_expr;
  if is_hot then ctx.hot_depth <- ctx.hot_depth - 1;
  if is_bounds then ctx.bounds_depth <- ctx.bounds_depth - 1;
  pop_allows ctx pushed;
  if not top then ctx.top <- saved_top

(* Floating [@@@lint.zero_alloc_hot] / file-scoped [@@@lint.allow]: the
   pre-pass collects them wherever they appear so placement is free. *)
let pre_pass ctx (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_attribute attr ->
        let attr_name = attr.Parsetree.attr_name.txt in
        if String.equal attr_name "lint.zero_alloc_hot" then begin
          match Suppress.strings_of_payload attr.Parsetree.attr_payload with
          | Some [] -> ctx.hot_module <- true
          | Some names -> ctx.hot_names <- names @ ctx.hot_names
          | None ->
            error ctx ~loc:attr.Parsetree.attr_loc ~rule:"lint/bad-allow"
              ~msg:
                "[@@@lint.zero_alloc_hot] payload must be function-name \
                 string literals"
        end
        else if String.equal attr_name "lint.allow" then
          ignore (push_allows ctx [ attr ])
      | Tstr_value (_, vbs) ->
        List.iter
          (fun id -> Hashtbl.replace ctx.globals id ())
          (let_bound_idents vbs)
      | _ -> ())
    str.str_items

let scan_structure ~cfg ~file (str : structure) =
  let ctx =
    {
      cfg;
      file;
      top = "<toplevel>";
      findings = [];
      suppressed = [];
      allows = [];
      all_allows = [];
      hot_module = false;
      hot_names = [];
      hot_depth = 0;
      bounds_depth = 0;
      globals = Hashtbl.create 64;
      rec_ids = Hashtbl.create 16;
      peeled = [];
    }
  in
  pre_pass ctx str;
  let structure_item sub (item : structure_item) =
    match item.str_desc with
    | Tstr_value (rf, vbs) ->
      (match rf with
       | Recursive ->
         List.iter
           (fun id -> Hashtbl.replace ctx.rec_ids id ())
           (let_bound_idents vbs)
       | Nonrecursive -> ());
      List.iter (fun vb -> process_binding ctx sub ~top:true vb) vbs
    | Tstr_attribute _ -> ()  (* handled by the pre-pass *)
    | _ -> Tast_iterator.default_iterator.structure_item sub item
  in
  let it =
    {
      Tast_iterator.default_iterator with
      structure_item;
      expr = (fun sub e -> expr_hook ctx sub e);
      value_binding = (fun sub vb -> process_binding ctx sub ~top:false vb);
    }
  in
  it.structure it str;
  (* justified allows that silenced nothing are themselves suspicious *)
  List.iter
    (fun (a : Suppress.allow) ->
      if Option.is_some a.justification && not a.used then begin
        let line, col = loc_pos a.loc in
        ctx.findings <-
          {
            Finding.rule = "lint/unused-allow";
            severity = Finding.Warning;
            file = ctx.file;
            line;
            col;
            context = "<attribute>";
            message =
              Printf.sprintf "[@lint.allow \"%s\"] suppresses nothing" a.rule;
          }
          :: ctx.findings
      end)
    ctx.all_allows;
  {
    findings = Finding.sort ctx.findings;
    suppressed =
      List.sort
        (fun (a, _) (b, _) -> Finding.compare_by_site a b)
        ctx.suppressed;
  }

(* ------------------------------------------------------------------ *)
(* Cmt entry points                                                    *)
(* ------------------------------------------------------------------ *)

let source_of_cmt (cmt : Cmt_format.cmt_infos) ~cmt_path =
  let raw =
    match cmt.cmt_sourcefile with
    | Some f -> f
    | None -> Filename.basename cmt_path
  in
  let raw = Lint_config.normalize_path raw in
  (* strip any build prefix so scope matching sees lib/...; the compiler
     usually records the path relative to the build root already *)
  let marker = "_build/default/" in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length raw then raw
    else if String.equal (String.sub raw i mlen) marker then
      String.sub raw (i + mlen) (String.length raw - i - mlen)
    else find (i + 1)
  in
  find 0

(* OCaml 5.1: [Texp_function] carries one argument and a case list; curried
   definitions show up as single-case chains of nested lambdas. *)

let lambda_bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_function { cases; _ } ->
    let bodies = List.map (fun c -> c.Typedtree.c_rhs) cases in
    Some (bodies, List.length cases = 1)
  | _ -> None

let init_load_path dirs =
  Load_path.init ~auto_include:Load_path.no_auto_include dirs

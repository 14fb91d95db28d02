(* OCaml 5.2: [Texp_function] is n-ary (a parameter list plus a body that is
   either an expression or a case list), and [Load_path.init] grew
   visible/hidden labels.  Untested locally (the pinned toolchain is 5.1);
   kept in sync with the 5.2 typedtree by CI. *)

let lambda_bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_function { params = _; body } -> begin
    match body with
    | Typedtree.Tfunction_body b -> Some ([ b ], true)
    | Typedtree.Tfunction_cases fc ->
      let bodies = List.map (fun c -> c.Typedtree.c_rhs) fc.Typedtree.fc_cases in
      Some (bodies, List.length bodies = 1)
  end
  | _ -> None

let init_load_path dirs =
  Load_path.init ~auto_include:Load_path.no_auto_include ~visible:dirs
    ~hidden:[]

type summary = {
  findings : Finding.t list;  (* sorted *)
  suppressed : (Finding.t * string) list;
  warnings : string list;
}

let errors s =
  List.filter
    (fun (f : Finding.t) ->
      match f.severity with Finding.Error -> true | Finding.Warning -> false)
    s.findings

let ok s = List.compare_length_with (errors s) 0 = 0

let text ppf s =
  List.iter (fun w -> Format.fprintf ppf "%s@." w) s.warnings;
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) s.findings;
  let n_err = List.length (errors s) in
  let n_warn = List.length s.findings - n_err in
  Format.fprintf ppf "rdt_lint: %d error%s, %d warning%s, %d suppressed@."
    n_err
    (if n_err = 1 then "" else "s")
    n_warn
    (if n_warn = 1 then "" else "s")
    (List.length s.suppressed)

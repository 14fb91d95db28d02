type align = Left | Right

type row = Cells of string list | Separator

type t = {
  columns : (string * align) list;
  mutable rev_rows : row list;
}

let create ~columns =
  if List.is_empty columns then invalid_arg "Table.create: no columns";
  { columns; rev_rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rev_rows <- Cells cells :: t.rev_rows

let add_separator t = t.rev_rows <- Separator :: t.rev_rows

let render t =
  let headers = List.map fst t.columns in
  let rows = List.rev t.rev_rows in
  let widths =
    List.mapi
      (fun i (header, _) ->
        List.fold_left
          (fun acc -> function
            | Separator -> acc
            | Cells cells -> max acc (String.length (List.nth cells i)))
          (String.length header) rows)
      t.columns
  in
  let pad align width s =
    let fill = String.make (max 0 (width - String.length s)) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let render_cells cells =
    let padded =
      List.map2
        (fun (s, (_, align)) width -> pad align width s)
        (List.combine cells t.columns)
        widths
    in
    String.concat " | " padded
  in
  let rule =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  let body =
    List.map
      (function Cells cells -> render_cells cells | Separator -> rule)
      rows
  in
  String.concat "\n" ((render_cells headers :: rule :: body) @ [])

let print t =
  print_string (render t);
  print_newline ()

let fmt_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let fmt_ratio a b =
  if b = 0.0 then "-"
  else Printf.sprintf "%.0f/%.0f (%.1f%%)" a b (100.0 *. a /. b)

(* .cmt discovery that behaves identically from a source checkout (where
   the artefacts live under <root>/_build/default), from inside a dune
   action (cwd is already the build root) and in sandboxed layouts.
   Missing directories or unreadable files warn and skip: the lint only
   exits nonzero on genuine findings. *)

type result = {
  cmts : string list;  (* .cmt and .cmti *)
  load_dirs : string list;  (* every directory that held a .cmt or .cmi *)
  warnings : string list;
}

let build_root ~root =
  let cand = Filename.concat root (Filename.concat "_build" "default") in
  if Sys.file_exists cand && Sys.is_directory cand then cand else root

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

let walk dir ~f =
  let rec go dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then go path else f path)
        entries
  in
  go dir

let find_cmts ~root ~dirs =
  let base = build_root ~root in
  let warnings = ref [] in
  let cmts = ref [] in
  let load_dirs = Hashtbl.create 16 in
  List.iter
    (fun dir ->
      let abs = Filename.concat base dir in
      if not (Sys.file_exists abs && Sys.is_directory abs) then
        warnings :=
          Printf.sprintf "lint: skipping missing directory %s (no build \
                          artefacts under %s?)"
            dir base
          :: !warnings
      else
        walk abs ~f:(fun path ->
            if
              has_suffix ~suffix:".cmt" path || has_suffix ~suffix:".cmti" path
            then begin
              cmts := path :: !cmts;
              Hashtbl.replace load_dirs (Filename.dirname path) ()
            end
            else if has_suffix ~suffix:".cmi" path then
              Hashtbl.replace load_dirs (Filename.dirname path) ()))
    dirs;
  if List.compare_length_with !cmts 0 = 0 then
    warnings :=
      Printf.sprintf
        "lint: no .cmt files found under %s for dirs [%s]; run `dune build \
         @check` first"
        base (String.concat "; " dirs)
      :: !warnings;
  let load_dirs =
    Hashtbl.fold (fun d () acc -> d :: acc) load_dirs []
    |> List.sort String.compare
  in
  let stdlib = Config.standard_library in
  let load_dirs =
    if Sys.file_exists stdlib then load_dirs @ [ stdlib ] else load_dirs
  in
  {
    cmts = List.sort String.compare !cmts;
    load_dirs;
    warnings = List.rev !warnings;
  }

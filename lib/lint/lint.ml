(* Top-level driver: discover cmts, initialise the compiler's load path,
   scan, render.  Exit status 0 unless there are error-severity
   findings. *)

let scan ?(cfg = Lint_config.default) ~root ~dirs () =
  let d = Discover.find_cmts ~root ~dirs in
  Lint_compat.init_load_path d.load_dirs;
  Envaux.reset_cache ();
  let scans = ref Engine.empty_scan in
  let warnings = ref d.warnings in
  List.iter
    (fun cmt ->
      match Engine.scan_cmt ~cfg cmt with
      | Engine.Scanned (_, s) -> scans := Engine.merge !scans s
      | Engine.Skipped w -> warnings := w :: !warnings)
    d.cmts;
  ( {
      Engine.findings = Finding.sort !scans.findings;
      suppressed = !scans.suppressed;
    },
    List.rev !warnings )

let run ?cfg ~root ~dirs () =
  let scans, warnings = scan ?cfg ~root ~dirs () in
  let summary =
    {
      Report.findings = scans.Engine.findings;
      suppressed = scans.Engine.suppressed;
      warnings;
    }
  in
  Report.text Format.std_formatter summary;
  if Report.ok summary then 0 else 1

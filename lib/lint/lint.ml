(* Top-level driver: discover cmts, initialise the compiler's load path,
   scan every unit, then run the cross-unit dead/* check. *)

let scan ?(cfg = Lint_config.default) ~root ~dirs () =
  let d = Discover.find_cmts ~root ~dirs in
  Lint_compat.init_load_path d.load_dirs;
  Envaux.reset_cache ();
  let findings = ref [] and suppressed = ref [] in
  let dead = Dead.create cfg in
  let warnings = ref d.warnings in
  let skip msg = warnings := msg :: !warnings in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception exn ->
        skip
          (Printf.sprintf "lint: cannot read %s (%s); skipped" cmt_path
             (Printexc.to_string exn))
      | cmt -> begin
        let file = Engine.source_of_cmt cmt ~cmt_path in
        match cmt.cmt_annots with
        | Implementation str ->
          (* the per-unit rules police lib/; the other trees only feed
             the reference index *)
          if Lint_config.in_lib cfg file then begin
            let s = Engine.scan_structure ~cfg ~file str in
            findings := s.findings @ !findings;
            suppressed := s.suppressed @ !suppressed
          end;
          Dead.add_implementation dead ~file str
        | Interface sg -> Dead.add_interface dead ~unit:cmt.cmt_modname ~file sg
        | _ ->
          skip
            (Printf.sprintf "lint: %s is not a compiled unit; skipped"
               cmt_path)
      end)
    d.cmts;
  {
    Report.findings = Finding.sort (Dead.check dead @ !findings);
    suppressed = !suppressed;
    warnings = List.rev !warnings;
  }

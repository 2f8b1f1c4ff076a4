(* ahl_lint: project-invariant static analyzer for the AHL reproduction.

   Usage: ahl_lint [--json] [--base PREFIX] [--no-default-excludes] [roots...]

   A finding passes only under an inline "ahl_lint: allow <rule>" comment,
   with its reason, on the flagged line or the line above.

   Exit codes: 0 clean, 1 violations, 2 usage errors. *)

open Repro_analysis

let default_roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let default_excludes = [ "_build"; "analysis_fixtures"; ".git" ]

let () =
  let json = ref false in
  let base = ref "" in
  let excludes = ref default_excludes in
  let roots = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit findings as a JSON array on stdout");
      ( "--base",
        Arg.Set_string base,
        "PREFIX strip PREFIX from scanned paths before rule scoping (fixture trees)" );
      ( "--no-default-excludes",
        Arg.Unit (fun () -> excludes := []),
        " drop the built-in excludes (needed to scan fixture trees)" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun r -> roots := r :: !roots)
    "ahl_lint [options] [roots...]  (default roots: lib bin bench test examples)";
  let roots = match List.rev !roots with [] -> default_roots | r -> r in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "ahl_lint: root %s does not exist\n" r;
        exit 2
      end)
    roots;
  let all = Lint.scan ~base:!base ~roots ~excludes:!excludes () in
  let active = List.filter (fun f -> not f.Lint_types.suppressed) all in
  if !json then print_string (Lint_types.to_json active)
  else begin
    List.iter (fun f -> print_endline (Lint_types.to_human f)) active;
    let errors, warnings =
      List.partition (fun f -> f.Lint_types.severity = Lint_types.Error) active
    in
    Printf.eprintf "ahl_lint: %d violations (%d errors, %d warnings); %d inline-allowed\n"
      (List.length active) (List.length errors) (List.length warnings)
      (List.length all - List.length active)
  end;
  if active <> [] then exit 1

open Lint_types

(* ------------------------------------------------------------------ *)
(* Small string/path helpers                                           *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  nn = 0 || go 0

let strip_prefix ~prefix s =
  let np = String.length prefix in
  if np > 0 && String.length s >= np && String.equal (String.sub s 0 np) prefix then
    String.sub s np (String.length s - np)
  else s

let normalize path = strip_prefix ~prefix:"./" path

let has_suffix ~suffix s =
  let ns = String.length suffix and n = String.length s in
  n >= ns && String.equal (String.sub s (n - ns) ns) suffix

(* ------------------------------------------------------------------ *)
(* File IO and parsing                                                 *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> Ok src
  | exception Sys_error msg -> Error msg

let parse_error_finding ~logical exn =
  let line, col, msg =
    match exn with
    | Syntaxerr.Error err ->
        let loc = Syntaxerr.location_of_error err in
        (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol + 1, "syntax error")
    | exn -> (1, 1, Printexc.to_string exn)
  in
  make ~rule:Parse_error ~file:logical ~line ~col (Printf.sprintf "cannot parse: %s" msg)

let parse_impl ~logical src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf logical;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn -> Error (parse_error_finding ~logical exn)

let parse_intf ~logical src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf logical;
  match Parse.interface lexbuf with
  | signature -> Ok signature
  | exception exn -> Error (parse_error_finding ~logical exn)

(* ------------------------------------------------------------------ *)
(* Inline suppression: a comment containing "ahl_lint: allow <rule>"   *)
(* on the flagged line or the line directly above it                   *)
(* ------------------------------------------------------------------ *)

let mark_suppressed ~src findings =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let marker_on l rule =
    l >= 1 && l <= Array.length lines && contains lines.(l - 1) ("ahl_lint: allow " ^ rule_id rule)
  in
  List.map
    (fun f ->
      if marker_on f.line f.rule || marker_on (f.line - 1) f.rule then { f with suppressed = true }
      else f)
    findings

(* ------------------------------------------------------------------ *)
(* Per-file entry point (R1–R3)                                        *)
(* ------------------------------------------------------------------ *)

let check_source ~logical src =
  match parse_impl ~logical src with
  | Error f -> [ f ]
  | Ok structure -> mark_suppressed ~src (Lint_rules.of_structure ~path:logical structure)

let check_file ?logical_path file =
  let logical = match logical_path with Some p -> p | None -> normalize file in
  match read_file file with
  | Error msg -> [ make ~rule:Parse_error ~file:logical ~line:1 ~col:1 msg ]
  | Ok src -> check_source ~logical src

(* ------------------------------------------------------------------ *)
(* R4: interface coverage and unused exports                           *)
(* ------------------------------------------------------------------ *)

type file_usage = {
  u_path : string;
  u_opens : (string, unit) Hashtbl.t;
  u_bare : (string, unit) Hashtbl.t;
  u_qualified : (string * string, unit) Hashtbl.t;
}

let usage_of_structure ~path structure =
  let u =
    {
      u_path = path;
      u_opens = Hashtbl.create 8;
      u_bare = Hashtbl.create 64;
      u_qualified = Hashtbl.create 64;
    }
  in
  let aliases = Hashtbl.create 4 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let record_module_expr (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> (
        match List.rev (Lint_rules.flatten txt) with
        | last :: _ -> Hashtbl.replace u.u_opens (resolve last) ()
        | [] -> ())
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr this (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Lint_rules.flatten txt with
        | [ v ] -> Hashtbl.replace u.u_bare v ()
        | parts -> (
            match List.rev parts with
            | v :: m :: _ -> Hashtbl.replace u.u_qualified (resolve m, v) ()
            | _ -> ()))
    | Pexp_open (od, _) -> record_module_expr od.popen_expr
    | _ -> ());
    super.expr this e
  in
  let structure_item this (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    | Pstr_open od -> record_module_expr od.popen_expr
    | Pstr_include inc -> record_module_expr inc.pincl_mod
    | Pstr_module
        {
          pmb_name = { txt = Some name; _ };
          pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
          _;
        } -> (
        match List.rev (Lint_rules.flatten txt) with
        | last :: _ -> Hashtbl.replace aliases name last
        | [] -> ())
    | _ -> ());
    super.structure_item this si
  in
  let it = { super with expr; structure_item } in
  it.structure it structure;
  u

let exports_of_signature (sg : Parsetree.signature) =
  List.filter_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd -> Some (vd.pval_name.txt, vd.pval_loc.loc_start.pos_lnum)
      | _ -> None)
    sg

let module_name_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let value_used ~usages ~def_ml ~modname ~name =
  List.exists
    (fun u ->
      (not (String.equal u.u_path def_ml))
      && (Hashtbl.mem u.u_qualified (modname, name)
         || (Hashtbl.mem u.u_opens modname && Hashtbl.mem u.u_bare name)))
    usages

(* ------------------------------------------------------------------ *)
(* Directory walking                                                   *)
(* ------------------------------------------------------------------ *)

let walk ~excludes roots =
  let excluded path = List.exists (fun e -> contains path e) excludes in
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let rec go path =
    let path = normalize path in
    if excluded path || Hashtbl.mem seen path then ()
    else begin
      Hashtbl.replace seen path ();
      if Sys.file_exists path then
        if Sys.is_directory path then begin
          let entries = Sys.readdir path in
          Array.sort String.compare entries;
          Array.iter (fun entry -> go (Filename.concat path entry)) entries
        end
        else if has_suffix ~suffix:".ml" path || has_suffix ~suffix:".mli" path then
          acc := path :: !acc
    end
  in
  List.iter go roots;
  List.sort String.compare !acc

(* ------------------------------------------------------------------ *)
(* R9: lib modules no executable reaches                               *)
(* ------------------------------------------------------------------ *)

let executable_roots = [ "bin/"; "bench/"; "examples/" ]

(* Every capitalised identifier in a source: module paths, constructors and
   exceptions alike.  Over-approximating a module's uses can only hide an
   unreached module, never flag a reached one. *)
let module_mentions src =
  let lexbuf = Lexing.from_string src in
  Lexer.init ();
  let rec go acc =
    match Lexer.token lexbuf with
    | Parser.EOF -> acc
    | Parser.UIDENT name -> go (name :: acc)
    | _ -> go acc
  in
  match go [] with names -> names | exception Lexer.Error _ -> []

(* [sources] are (logical path, text) pairs for every scanned .ml/.mli.  A
   lib module is reached when an executable's source names it, or a
   reached lib module's .ml or .mli does; modules are matched by name.  A
   module the paper's argument needs although no executable runs it carries
   an inline allow on line 1 naming its paper section. *)
let unreached_modules sources =
  let in_lib (lg, _) = Lint_rules.starts_with ~prefix:"lib/" lg in
  let lib = List.filter in_lib sources in
  let reached = Hashtbl.create 64 in
  let rec reach name =
    if not (Hashtbl.mem reached name) then begin
      Hashtbl.replace reached name ();
      List.iter
        (fun (lg, src) ->
          if String.equal (module_name_of lg) name then List.iter reach (module_mentions src))
        lib
    end
  in
  List.iter
    (fun (lg, src) ->
      if List.exists (fun prefix -> Lint_rules.starts_with ~prefix lg) executable_roots then
        List.iter reach (module_mentions src))
    sources;
  List.concat_map
    (fun (lg, src) ->
      let name = module_name_of lg in
      if has_suffix ~suffix:".ml" lg && not (Hashtbl.mem reached name) then
        mark_suppressed ~src
          [
            make ~rule:R9 ~file:lg ~line:1 ~col:1
              (Printf.sprintf
                 "lib module %s is reached from no bin/, bench/ or examples/ code; delete it or \
                  allow it inline with its paper section"
                 name);
          ]
      else [])
    lib

(* ------------------------------------------------------------------ *)
(* Whole-project scan                                                  *)
(* ------------------------------------------------------------------ *)

let scan ?(base = "") ~roots ~excludes () =
  let files = walk ~excludes roots in
  let logical p = strip_prefix ~prefix:base p in
  let logical_set = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace logical_set (logical p) ()) files;
  let ml_files = List.filter (has_suffix ~suffix:".ml") files in
  let mli_files = List.filter (has_suffix ~suffix:".mli") files in
  let findings = ref [] in
  let usages = ref [] in
  let summaries = ref [] in
  (* Each file is read once; R7/R8's inline-allow marking and R9 reuse it. *)
  let sources = Hashtbl.create 256 in
  let read file =
    let lg = logical file in
    match Hashtbl.find_opt sources lg with
    | Some src -> Ok src
    | None -> Result.map (fun src -> Hashtbl.replace sources lg src; src) (read_file file)
  in
  (* R1–R3 plus usage and summary collection, one parse per implementation. *)
  List.iter
    (fun file ->
      let lg = logical file in
      match read file with
      | Error msg -> findings := make ~rule:Parse_error ~file:lg ~line:1 ~col:1 msg :: !findings
      | Ok src -> (
          match parse_impl ~logical:lg src with
          | Error f -> findings := f :: !findings
          | Ok structure ->
              usages := usage_of_structure ~path:lg structure :: !usages;
              summaries := Summary.of_structure ~path:lg structure :: !summaries;
              findings :=
                mark_suppressed ~src (Lint_rules.of_structure ~path:lg structure) @ !findings))
    ml_files;
  (* R7/R8: cross-module propagation over the collected summaries.  The
     inline-allow marking needs each finding's own file's source text. *)
  List.iter
    (fun f ->
      let marked =
        match Hashtbl.find_opt sources f.file with
        | Some src -> List.hd (mark_suppressed ~src [ f ])
        | None -> f
      in
      findings := marked :: !findings)
    (Propagate.analyze (List.rev !summaries));
  (* R4a: every lib implementation carries an interface. *)
  List.iter
    (fun file ->
      let lg = logical file in
      if Lint_rules.starts_with ~prefix:"lib/" lg && not (Hashtbl.mem logical_set (lg ^ "i"))
      then
        findings :=
          make ~rule:R4 ~file:lg ~line:1 ~col:1
            (Printf.sprintf "lib module %s has no interface (.mli)" (module_name_of lg))
          :: !findings)
    ml_files;
  (* R4b: no exported value of a lib interface is unused elsewhere. *)
  let usages = !usages in
  List.iter
    (fun file ->
      let lg = logical file in
      if Lint_rules.starts_with ~prefix:"lib/" lg then
        match read file with
        | Error msg -> findings := make ~rule:Parse_error ~file:lg ~line:1 ~col:1 msg :: !findings
        | Ok src -> (
            match parse_intf ~logical:lg src with
            | Error f -> findings := f :: !findings
            | Ok signature ->
                let modname = module_name_of lg in
                let def_ml = Filename.remove_extension lg ^ ".ml" in
                let unused =
                  List.filter_map
                    (fun (name, line) ->
                      if value_used ~usages ~def_ml ~modname ~name then None
                      else
                        Some
                          (make ~severity:Warning ~rule:R4 ~file:lg ~line ~col:1
                             (Printf.sprintf
                                "%s.%s is exported but never used outside %s; drop it from the \
                                 .mli or use it"
                                modname name def_ml)))
                    (exports_of_signature signature)
                in
                findings := mark_suppressed ~src unused @ !findings))
    mli_files;
  (* R9 needs the executables in view, so it runs only when a bin root is
     scanned (fixture trees that scan lib alone keep their findings). *)
  let bin_root r = List.exists (String.equal (logical (normalize r))) [ "bin"; "bin/" ] in
  if List.exists bin_root roots then begin
    let source file = Result.to_option (read file) |> Option.map (fun src -> (logical file, src)) in
    findings := unreached_modules (List.filter_map source files) @ !findings
  end;
  List.sort compare_finding !findings

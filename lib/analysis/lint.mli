(** ahl_lint driver: project scanning and inline suppression.

    The scan parses every [.ml]/[.mli] under the given roots with
    [compiler-libs], runs the R1–R3 AST checks per file, the R4
    interface-coverage checks across the whole module graph, the two-pass
    cross-module R7/R8 analysis ({!Summary} + {!Propagate}) and, when a
    [bin] root is scanned, R9 reachability.  The only way to silence a
    finding is an inline comment containing ["ahl_lint: allow <rule>"],
    with its reason, on (or directly above) the flagged line. *)

val parse_impl : logical:string -> string -> (Parsetree.structure, Lint_types.finding) result
(** Parse implementation source as [compiler-libs] would; the error case
    is a ready-made [Parse_error] finding.  Exposed so summary-pass unit
    tests can feed {!Summary.of_structure} directly. *)

val check_file : ?logical_path:string -> string -> Lint_types.finding list
(** Lint one implementation file (R1–R3 + inline suppression marking).
    [logical_path] overrides the path used for rule scoping, so fixture
    files can be linted as if they lived under [lib/]. *)

val scan :
  ?base:string -> roots:string list -> excludes:string list -> unit -> Lint_types.finding list
(** Scan whole directory trees.  Findings whose inline-allow comment fired
    are returned with [suppressed = true]; callers filter.  [excludes] are
    substrings of paths to skip.  [base] is stripped from the front of each
    path before rule scoping (fixture trees pass the prefix that makes their
    files look like ["lib/..."]). *)

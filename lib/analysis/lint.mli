(** ahl_lint driver: project scanning, inline suppression, baseline.

    The scan parses every [.ml]/[.mli] under the given roots with
    [compiler-libs], runs the R1–R3 AST checks per file, the R4
    interface-coverage checks across the whole module graph, and the
    two-pass cross-module R7/R8 analysis ({!Summary} + {!Propagate}).
    A finding is silenced either by an inline comment containing
    ["ahl_lint: allow <rule>"] on (or directly above) the flagged line, or
    by an entry in the checked-in baseline file — except R1/R2/R6/R7,
    which can only be fixed or inline-annotated. *)

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

type baseline

val load_baseline : string -> (baseline, string) result
(** Parse a baseline file ("<rule> <path> <count>" lines, '#' comments).
    A missing file is an empty baseline. *)

val apply_baseline : baseline:baseline -> Lint_types.finding list -> Lint_types.finding list
(** Drop finding groups whose (rule, path) count stays within the recorded
    allowance; any growth reports the whole group.  R1/R2/R6/R7 baseline
    entries are returned as rejection findings, and so is any entry whose
    count exceeds its group's current findings (the ratchet: lower it). *)

val write_baseline :
  path:string -> Lint_types.finding list -> (int * Lint_types.finding list, string) result
(** Write a fresh baseline covering the given findings; returns the number
    of entries written and the findings that may never be baselined
    (R1/R2/R6/R7), which the caller must surface. *)

(** Core vocabulary of ahl_lint: rules, severities, findings, rendering.

    The rule set mirrors the project invariants the AHL reproduction depends
    on (see DESIGN.md):
    - R1 determinism: no wall-clock / self-seeded randomness / hash-order
      iteration in library code.
    - R2 comparison safety: no polymorphic compare or structural [=] in the
      consensus, ledger, and shard message/state paths.
    - R3 exception hygiene: no [failwith]/[assert false]/[invalid_arg] in
      [lib/].
    - R4 interface coverage: every [lib] module has an [.mli] exporting no
      unused public values.
    - R5 quorum hygiene: no bare [2*f+1] / [3*f+1] arithmetic in the
      consensus and shard paths; quorum and committee sizes must come from
      [Config.quorum_size] / [Config.n_for_f] (or the sizing allowlist).
    - R6 console hygiene: no direct console printing
      ([Printf.printf]/[eprintf], [print_string] and friends) in [lib/]
      outside the rendering allowlist ([Sink]/[Table]); library code
      reports through [Repro_obs] probes or returns strings.
    - R7 domain safety: no unguarded access to toplevel mutable state
      reachable from a [Pool.submit]/[Domain.spawn] task, and no unguarded
      mutation inside a module that hand-rolls synchronization
      (cross-module, via {!Summary} + {!Propagate}).
    - R8 nondeterminism sources: no ambient [Random] draws,
      [Domain.self], [Gc] statistics, or polymorphic [Hashtbl.hash]
      reachable from trace-, metric-, artifact-, or consensus-producing
      code (cross-module).
    - R9 reachability: every [lib] module is reached, directly or through
      other [lib] modules, from code under [bin/], [bench/] or
      [examples/] ([test/] does not count), unless line 1 carries an
      inline allow naming the paper section it stands for.  Runs only when
      a [bin] root is scanned. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | Parse_error

type severity = Error | Warning

type finding = {
  rule : rule;
  severity : severity;
  file : string;  (** path as scanned, also used for rule scoping *)
  line : int;
  col : int;
  message : string;
  suppressed : bool;  (** an inline [ahl_lint: allow <rule>] comment covers it *)
}

val rule_id : rule -> string
(** "R1".."R9", or "parse" for unparseable files. *)

val severity_id : severity -> string

val make :
  ?severity:severity -> rule:rule -> file:string -> line:int -> col:int -> string -> finding
(** Build an unsuppressed finding; severity defaults to [Error]. *)

val compare_finding : finding -> finding -> int
(** Order by file, line, column, then rule id. *)

val to_human : finding -> string
(** [file:line:col: [rule/severity] message] — click-through friendly. *)

val to_json : finding list -> string
(** Machine-readable JSON array of findings. *)

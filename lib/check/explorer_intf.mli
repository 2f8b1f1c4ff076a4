(** The signatures of the explorer core ({!Explorer.Make}) behind both
    checkers.  A {!MODEL} supplies what differs between them — the
    schedule language, the oracle's violations, the run parameters, and
    how one run replays — and {!S} is what the core builds from it: seeded
    trials, greedy shrinking, safety/liveness tallies, and the per-trial
    text and JSON reports.

    Trial [i] of a run with base seed [s] uses engine seed [s + i] and a
    schedule drawn from [split_named (create s) (string_of_int i)], so a
    witness is fully described by [(engine_seed, schedule)] plus the fixed
    run parameters. *)

module type MODEL = sig
  type schedule

  val size : schedule -> int
  (** Structural size; reported as a shrunk witness's [shrunk_size]. *)

  val candidates : schedule -> schedule list
  (** One-step simplifications, most aggressive first. *)

  val schedule_to_string : schedule -> string
  (** The one-line replayable witness. *)

  type violation

  val is_safety : violation -> bool

  val same_kind : violation -> violation -> bool
  (** The shrinker's "still the same bug" test. *)

  val violation_to_string : violation -> string

  val earns_witness : violation -> bool
  (** Which violations are shrunk to a minimal witness. *)

  type params
  (** The fixed run parameters a report is about. *)

  val label : params -> string
  (** Leads the report's text header. *)

  val params_json : params -> string
  (** The report's leading JSON members, without braces. *)

  type stats
  (** Per-trial model data the core carries but does not interpret. *)

  val stats_json : stats -> (string * int) list
  (** Members the trial's JSON object carries after its engine seed. *)

  val replay : params -> engine_seed:int64 -> schedule -> violation list * stats
  (** One deterministic run, checked by the oracles. *)
end

module type S = sig
  type schedule
  type violation
  type params
  type stats

  type trial = {
    index : int;
    engine_seed : int64;
    schedule : schedule;
    violations : violation list;
    stats : stats;
    shrunk : schedule option;  (** minimized witness, when a violation earns one *)
    shrink_reruns : int;
  }

  type report = {
    params : params;
    trials : trial list;
    safety_violations : int;  (** trials with at least one safety violation *)
    liveness_violations : int;  (** trials with at least one other violation *)
  }

  val engine_seed_for : seed:int64 -> int -> int64

  val schedule_rng : seed:int64 -> int -> Repro_util.Rng.t
  (** The generator trial [i] draws its schedule from. *)

  val shrink :
    replay:(schedule -> violation option) -> budget:int -> schedule -> violation -> schedule * int
  (** Greedy delta-debugging: walk the candidates of the current schedule
      in order, adopt the first whose [replay] yields a violation of the
      same kind, and restart from it until no candidate reproduces or
      [budget] replays are spent.  Returns the shrunk schedule and the
      replays spent. *)

  val explore :
    params -> schedule_of:(int -> schedule) -> trials:int -> seed:int64 -> budget:int -> report
  (** Run trials [0 .. trials-1] on [schedule_of i]; each trial's first
      witness-earning violation is shrunk with at most [budget] replays. *)

  val pp_summary : Format.formatter -> report -> unit
  (** The report's one-line header. *)

  val pp_report : Format.formatter -> report -> unit
  (** The header, then one block per trial: its violations and shrunk
      witness. *)

  val json_of_report : report -> string
end

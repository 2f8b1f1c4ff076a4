(** The single-committee checker: the {!Explorer} core instantiated over
    {!Schedule}s, {!Oracle} violations, and {!Testbed} runs, plus the
    headline differential properties.  Only safety violations are shrunk
    to a witness. *)

val hl_small : Repro_consensus.Config.variant
(** HL's unattested quorums at AHL's committee size ([N = 2f+1], quorums
    of [f+1]) — the configuration the paper's Section 3 argues is unsound,
    and the one the explorer must break. *)

val variant_of_name : string -> Repro_consensus.Config.variant option
(** CLI names: [hl2f1], [hl], [ahl], [ahl+], [ahlr]. *)

type params = { variant : Repro_consensus.Config.variant; n : int; f : int }

type stats = { view_changes : int  (** adopted new-views across the committee *) }

include
  Explorer_intf.S
    with type schedule := Schedule.t
     and type violation := Oracle.violation
     and type params := params
     and type stats := stats

val replay :
  variant:Repro_consensus.Config.variant ->
  n:int ->
  engine_seed:int64 ->
  Schedule.t ->
  Oracle.violation list
(** Deterministically re-run one witness and re-check the oracles. *)

val schedule_for : seed:int64 -> n:int -> f:int -> int -> Schedule.t
(** The schedule trial [i] uses (exposed for replay tests). *)

val run :
  variant:Repro_consensus.Config.variant ->
  n:int ->
  f:int ->
  trials:int ->
  seed:int64 ->
  budget:int ->
  report
(** Explore [trials] seeded schedules; safety violations are shrunk with
    at most [budget] replays each. *)

type differential = {
  broken : report;
  safe : report list;
  holds : bool;
      (** the paper's claim as a property: {!hl_small} yields a safety
          violation within the trial budget, and AHL/AHL+/AHLR never do
          on the identical schedules *)
}

val differential : f:int -> trials:int -> seed:int64 -> budget:int -> differential

val leader_schedule : n:int -> f:int -> int -> Schedule.t
(** The scripted schedule leader-attack trial [i] uses: byzantine clique
    on ids [0..f-1], no network perturbations, alternating stall /
    selective-serving leader strategies (exposed for replay tests).  The
    request count cycles through 6, 8, ..., 124, below
    {!Config.watermark_window}: the testbed never advances its stable
    checkpoint, so more requests would stall even a correct leader. *)

val leader_stall_differential : f:int -> trials:int -> seed:int64 -> budget:int -> differential
(** The Fig. 16 right-panel property as a differential.  Byzantine-leader
    stalls are timeout-detected in every PBFT variant — a silent leader is
    indistinguishable from a slow one — so the claim is about storm shape,
    not a safety split.  [holds] is the conjunction of: {!hl_small} storms
    with view changes on every stall trial without ever breaking safety;
    AHL/AHL+/AHLR ride out the identical schedules with zero violations of
    any kind (they keep committing); and AHLR alone also storms on the
    selective-serving trials — the starved minority can never reach the
    f+1 join threshold on its own, so only the relay watchdog detects that
    attack. *)

val pp_differential : Format.formatter -> differential -> unit
(** Each side's report under a [broken:] / [safe:] heading, then the
    verdict. *)

val pp_leader_differential : Format.formatter -> differential -> unit
(** Like the plain report printer but leads with per-trial view-change
    counts, and prints a one-line replayable witness for any trial off its
    expected shape (a violation anywhere, or a storm-free broken trial). *)

val json_summary : wall_time:float -> report list -> string
(** One machine-readable line: violations, shrunk witness sizes, and the
    caller-measured wall time. *)

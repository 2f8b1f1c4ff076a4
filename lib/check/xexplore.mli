(** The cross-shard checker: the {!Explorer} core instantiated over
    {!Xschedule}s, {!Xoracle} violations, and whole-system {!Xtestbed}
    runs, plus the silent-client differential.  Every violation — stuck
    locks included, they are first-class bugs here — is shrunk to a
    witness. *)

val mode_of_name : string -> Repro_core.System.coordination_mode option
(** CLI names: [ref], [client], [flat]. *)

val mode_name : Repro_core.System.coordination_mode -> string

val concurrency_of_name : string -> Repro_core.System.concurrency_control option
(** CLI names: [2pl], [waitdie]. *)

type params = {
  mode : Repro_core.System.coordination_mode;
  concurrency : Repro_core.System.concurrency_control;
  lane : bool;  (** true when the trials run the fast lane (mergeable deltas) *)
  shards : int;
  committee_size : int;
}

include
  Explorer_intf.S
    with type schedule := Xschedule.t
     and type violation := Xoracle.violation
     and type params := params
     and type stats := unit

val replay :
  ?lane:bool ->
  mode:Repro_core.System.coordination_mode ->
  concurrency:Repro_core.System.concurrency_control ->
  shards:int ->
  committee_size:int ->
  engine_seed:int64 ->
  Xschedule.t ->
  Xoracle.violation list
(** Deterministically re-run one witness and re-check the oracles.
    [lane] (default false) replays over the commutative fast lane with
    the honest transfers rewritten as delta pairs ({!Xtestbed.run}) — a
    run parameter, not part of the witness line. *)

val schedule_for :
  ?lane:bool -> seed:int64 -> shards:int -> committee_size:int -> int -> Xschedule.t
(** The schedule trial [i] uses (exposed for replay tests); [lane]
    (default false) draws with {!Xschedule.generate_lane} instead so
    faults also target the delta legs. *)

val run :
  ?lane:bool ->
  mode:Repro_core.System.coordination_mode ->
  concurrency:Repro_core.System.concurrency_control ->
  shards:int ->
  committee_size:int ->
  trials:int ->
  seed:int64 ->
  budget:int ->
  unit ->
  report
(** Explore [trials] seeded schedules; every violation (stuck locks
    included — they are first-class bugs here) is shrunk with at most
    [budget] replays.  [lane] (default false) explores the fast lane
    under delta-leg faults with the merge-convergence and conservation
    oracles armed. *)

val silent_client_schedule : Xschedule.t
(** Two cross-shard transfers, the first from a silent client, no
    network faults — the differential's fixed workload. *)

type differential = {
  with_ref : Xoracle.violation list;
  client_driven : Xoracle.violation list;
  holds : bool;
      (** the paper's Figure-14 argument as a property: R's fallback
          finishes the silent client's transaction with no violations,
          while client-driven coordination leaves its locks stuck *)
}

val differential : shards:int -> committee_size:int -> seed:int64 -> unit -> differential

val pp_differential : Format.formatter -> differential -> unit

val json_of_differential : differential -> string

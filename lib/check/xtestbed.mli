(** Deterministic whole-system executor for cross-shard schedules.

    Builds a {!Repro_core.System} (shard committees plus R when the mode
    says so), installs the schedule's faults — a leg filter over the
    coordination messages and timed crash windows on R's replicas — then
    submits the scripted cross-shard transfers and runs to a quiescence
    horizon ([heal time + grace]).  Everything the {!Xoracle}s need is
    captured in the outcome; two calls with the same
    [(engine_seed, schedule, mode, concurrency, shards, committee_size)]
    produce identical outcomes. *)

val grace : float
(** Seconds of synchrony after the last fault heals (and the last
    submission) before the run is considered quiescent. *)

type tx_info = {
  txid : int;
  honest : bool;  (** false when the schedule made this client silent *)
  participants : int list;
  outcome : Repro_core.System.tx_outcome option;  (** None: never decided *)
}

type outcome = {
  mode : Repro_core.System.coordination_mode;
  infos : tx_info list;
  decisions : Repro_core.System.decision_event list;
  stuck_locks : int;  (** lock tuples still held at the horizon *)
  total_before : int;  (** sum of account balances after funding *)
  total_after : int;  (** the same sum at the horizon *)
  ref_decisions : (int * bool) list;
      (** the coordinator machines' recorded decision per txid ([true] =
          committed): R's machine, or the per-shard machines when
          flattened; empty in [Client_driven] mode *)
  horizon : float;
  registry_size : int;  (** live coordination-registry entries at the horizon *)
  ckpt_certs : (int * int * int * int) list;
      (** every member's highest checkpoint certificate at the horizon, as
          [(committee, member, seq, root)] rows
          ({!Repro_core.System.committee_checkpoints}) — the
          checkpoint-agreement oracle's record *)
  observer_lag : (int * int) list;
      (** per committee, how many executed slots the observer trails its
          most advanced member by at the horizon
          ({!Repro_core.System.observer_lag}) — the bounded-convergence
          oracle's record *)
  merge_audit : (int * Repro_ledger.Merge.mismatch) list;
      (** per shard, keys whose materialised value differs from the
          canonical re-fold of the delta-lane history
          ({!Repro_core.System.merge_audit}) — the merge-convergence
          oracle's record; always empty when the run had no lane *)
  merge_roots : (int * string) list;
      (** per shard, the chained fold digest at the horizon
          ({!Repro_core.System.merge_roots}) — equal-seed lane runs must
          agree on every entry *)
}

val run :
  ?probe:Repro_obs.Probe.t ->
  ?lane:bool ->
  engine_seed:int64 ->
  mode:Repro_core.System.coordination_mode ->
  concurrency:Repro_core.System.concurrency_control ->
  shards:int ->
  committee_size:int ->
  Xschedule.t ->
  outcome
(** [probe] (default disabled) threads observability through the whole
    system under test — 2PC leg timing, vote/abort causes, PBFT phase and
    view-change events, epoch-transition waves — so a shrunk witness can
    be replayed with [--trace] and read in Perfetto.

    The system runs the batched + pipelined commit path the figures run
    (DESIGN §15); a schedule's fault probabilities apply per constituent
    leg of a batch carrier.

    [lane] (default [false]) turns {!Repro_core.System.config.fast_lane}
    on and rewrites the schedule's honest, in-funds transfers as
    unconditional delta pairs over per-shard mergeable keys disjoint from
    the locked-path accounts (malicious and overdraft transactions keep
     2PC, so both paths run mixed).  A run parameter — deliberately not
    part of the witness line. *)

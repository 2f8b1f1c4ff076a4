(** The sharded blockchain system: k shard committees plus an optional
    reference committee, wired over one simulated network, with the
    Section 6 coordination protocol on top.

    Committees run the PBFT family (AHL+ by default); each committee's
    designated observer replica materializes the shard's key-value state
    and hash chain.  Cross-shard transactions follow Figure 5, with the
    client relaying messages between R and the tx-committees (Section 6.3's
    optimization) and R's own nodes falling back to direct dispatch when a
    client goes silent, which is what defeats malicious coordinators.

    The commit path is batched and pipelined (DESIGN §15), which lifts
    the Fig.-13 reference-committee plateau: coordinator-bound Begin/Vote
    steps always travel in per-destination {!Coordination.op.Batch}
    carriers (flushed after a 20 ms window or at 128 steps) so one
    consensus slot orders many transactions, and a relaying client
    dispatches prepares at submit time so the coordinator's consensus on
    BeginTx overlaps the shards' prepare work. *)

type coordination_mode =
  | With_reference            (** 2PC state machine on a BFT committee R *)
  | Client_driven             (** OmniLedger-style: the client decides —
                                  unsafe under malicious clients *)
  | Flattened
      (** SharPer-style: no dedicated committee — an involved shard
          (chosen by txid among the participants) hosts the transaction's
          2PC machine, so coordination capacity grows with the shard
          count instead of bottlenecking on one committee *)

type concurrency_control =
  | Two_phase_locking  (** the paper's 2PL: conflicting prepares vote NotOK *)
  | Wait_die
      (** the Section 6.4 extension: an older transaction whose prepare
          hits a lock parks (bounded wait) and retries on release; younger
          transactions still die, so no deadlocks *)

type config = {
  shards : int;
  committee_size : int;
  variant : Repro_consensus.Config.variant;
  topology : Repro_sim.Topology.t;
      (** the testbed: it sets the CPU scale and AHLR's relay timing *)
  mode : coordination_mode;
  concurrency : concurrency_control;
  seed : int64;
  fast_lane : bool;
      (** route all-mergeable transactions down the lock-free delta lane
          (DESIGN §18): deltas append per shard with no prepare/vote round
          and no locks, and fold into canonical state at block boundaries;
          mixed/non-commutative transactions keep 2PC+2PL.  Off in
          {!default_config}. *)
}

val default_config : shards:int -> committee_size:int -> config

type t

type tx_outcome = Committed | Aborted

val create : config -> t

val engine : t -> Repro_sim.Engine.t

val shards : t -> int

val committee_size : t -> int

val shard_state : t -> int -> Repro_ledger.State.t
(** The observer-materialized state of a shard (for setup and assertions). *)

val shard_chain : t -> int -> Repro_ledger.Block.Chain.chain

val reference_machine : t -> Repro_shard.Reference.t option
(** R's 2PC chaincode instance ([With_reference] mode only; [None] in the
    other modes — see {!coordination_machines} for the flattened ones). *)

val coordination_machines : t -> Repro_shard.Reference.t list
(** Every hosted 2PC machine in committee order: R's single machine under
    [With_reference], one per shard under [Flattened], empty when the
    client coordinates.  Checkers sum their stats to count decided
    transactions regardless of mode. *)

val submit :
  t ->
  ?on_done:(tx_outcome -> unit) ->
  ?malicious_client:bool ->
  Repro_ledger.Tx.t ->
  unit
(** Inject a transaction.  Single-shard transactions execute directly on
    their committee; cross-shard ones run the coordination protocol.
    [malicious_client] makes the submitting client stop relaying after
    BeginTx — with a coordinator committee ([With_reference] or
    [Flattened]) the fallback completes the transaction anyway; in
    [Client_driven] mode its locks dangle forever. *)

val run : t -> until:float -> unit

val committed : t -> int

val aborted : t -> int

val abort_rate : t -> float

val throughput : t -> warmup:float -> float
(** Committed transactions per second. *)

val latency_stats : t -> Repro_util.Stats.t

val throughput_series : t -> (float * float) list

val view_changes : t -> int
(** New views adopted, summed over every committee's {!Pbft.tally}. *)

val reference_busy_fraction : t -> float
(** Mean CPU utilization of the reference committee's replicas (0 when
    running without R) — the bottleneck measure of Figure 13. *)

val stuck_locks : t -> int
(** Lock tuples currently held across all shards; non-zero long after all
    clients finished indicates the OmniLedger blocking problem. *)

val set_leg_filter :
  t -> (dst:int -> Coordination.op -> Repro_sim.Network.verdict) option -> unit
(** Install (or clear) an adversarial filter over coordination legs: every
    client/R-initiated step headed for committee [dst] (a shard index, or
    [shards t] for R) passes through it and can be dropped, delayed, or
    duplicated before it reaches consensus.  Batched legs are filtered per
    {e constituent} step — dropping a Vote drops that vote out of its
    carrier, not the whole batch — so fault semantics are independent of
    how steps are grouped.  This is the cross-shard checker's
    fault-injection surface; [None] restores normal delivery. *)

val set_probe : t -> Repro_obs.Probe.t -> unit
(** Thread an observability probe through the whole system: 2PC leg
    timing histograms ([2pc.vote_leg_s], [2pc.decision_leg_s],
    [2pc.tx_total_s]), vote/abort cause counters ([2pc.vote_nok.*],
    [2pc.waitdie.*]), fallback-sweep firings, batched-commit
    instrumentation ([2pc.batch.size], [2pc.batch.pipeline_depth],
    [2pc.slot_steps], [2pc.batch.flush.*]), epoch-transition wave events,
    plus every committee's PBFT probe points and the shared network's
    delivery/drop instrumentation.  Call before {!run}. *)

val crash_member : t -> committee:int -> member:int -> unit
(** Crash one replica of a committee ([shards t] addresses R) through
    {!Repro_consensus.Pbft.crash}.  Crashing member 0 — the observer that
    materializes state — stalls that committee's execution; checkers that
    want the paper's crash-fault model should pick members >= 1. *)

val recover_member : t -> committee:int -> member:int -> unit
(** Revive a crashed replica ({!Repro_consensus.Pbft.recover}; a no-op on
    a live one).  It immediately runs checkpoint catch-up: missed slots
    are fetched from f+1 peers and replayed through the execution path,
    so a recovered observer's materialized state converges instead of
    silently diverging (the crashobs regression). *)

val reset_member : t -> committee:int -> member:int -> unit
(** Wipe one replica's consensus state as if a brand-new node took over
    the slot ({!Repro_consensus.Pbft.reset_member}).  Between
    {!crash_member} and {!recover_member} it makes a swap without the
    certificate install {!advance_epoch} does, so the newcomer must
    replay or transfer a snapshot. *)

val corrupt_next_snapshot : t -> shard:int -> unit
(** One-shot fault: the next catch-up snapshot served for this committee
    is tampered before transfer (a Byzantine serving member).  The
    joiner's verification rejects it and the fetch is retried clean —
    regression surface for Section 5.3's verify-before-serve rule. *)

val committee_checkpoints : t -> (int * int * int * int) list
(** Every member's highest checkpoint certificate as
    [(committee, member, seq, root)] rows (members holding none are
    omitted) — the record the checkpoint-agreement oracle reads. *)

val observer_lag : t -> (int * int) list
(** Per committee: how many executed slots the observer trails its most
    advanced member by, as [(committee, slots)] — the bounded-liveness
    oracle's convergence measure (0 everywhere once catch-up is done). *)

type decision_event = { at : float; txid : int; shard : int; commit : bool }

val decision_trace : t -> decision_event list
(** Every Commit_tx/Abort_tx — and every fast-lane delta leg, which is
    always a commit — applied at a shard observer, in application order;
    the observable record the atomicity and durable-decision oracles
    read. *)

val merge_audit : t -> (int * Repro_ledger.Merge.mismatch) list
(** The merge-convergence oracle's evidence: flush any deltas still
    pending in each shard's lane, then re-fold every lane's full history
    from its recorded base values and diff against materialised state.
    Empty iff each replica's state is exactly the canonical fold of its
    delta log (one root per block). *)

val merge_folds : t -> int
(** Total block-boundary folds performed across all shards. *)

val merge_lane_log : t -> shard:int -> int
(** Delta-lane entries ever appended at [shard] — with the applied-table
    dedup this counts each delta leg at most once, the surface the
    duplicated-leg idempotency test reads. *)

val merge_roots : t -> (int * string) list
(** Per shard, the hex chained digest over every block-boundary fold: a
    pure function of the folded delta sets, so equal-seed runs must agree
    replica by replica. *)

val prepare_evidence : t -> shard:int -> txid:int -> bool option
(** The shard observer's recorded quorum outcome for a prepare, if the
    prepare has executed and the transaction is still undecided there
    (evidence is dropped once the decision applies). *)

val registry_size : t -> int
(** Live entries in the coordination registry; bounded by the distinct
    operations of in-flight transactions plus the batches awaiting
    execution (executed or stranded batches are released, the latter
    after a grace period — regression surface for the retry-leak fix). *)

val advance_epoch :
  t -> at:float -> seed:int64 -> epoch:int -> strategy:[ `Swap_all | `Batched_log ] -> unit
(** The full Section 5 pipeline: derive the epoch's node-to-committee
    assignment from the beacon seed ({!Repro_shard.Assignment.derive}),
    plan the transition in waves of B = log₂(n)
    ({!Repro_shard.Sizing.swap_batch_size}), and run each wave as
    *literal* committee swaps ({!Repro_consensus.Pbft.swap}): the
    departing occupant's consensus state is wiped, the slot is offline for
    the time needed to fetch and verify the destination shard's state
    ({!Repro_shard.State_transfer}) plus re-attestation, and the newcomer
    rejoins anchored at the committee's latest certified checkpoint,
    replaying the tail from its peers.  Observers (member 0) are pinned
    infrastructure: they transition only under [`Swap_all], and then by
    restart-and-replay, never by state wipe. *)

(** BLOCKBENCH-style workload drivers for the sharded system.

    - {b KVStore}: the paper's modified driver issues 3 updates per
      transaction on Zipf-popular keys.
    - {b SmallBank}: [sendPayment] between two Zipf-sampled accounts
      (reads and writes two different states).
    - {b Hot increments}: a tunable mix of credit-only increments on hot
      accounts (all-commutative, so the fast lane can take them) and
      sendPayments (conditional debits, always locked) — the contention
      workload of the fig13_fastlane experiment.

    Keys hash across shards, so the cross-shard fraction follows
    Appendix B.  The multi-shard experiments use a closed-loop driver:
    each client keeps a window of transactions outstanding and submits a
    new one when one finishes. *)

type kind =
  | Kvstore of { updates_per_tx : int }
  | Smallbank
  | Hot_increments of { increment_fraction : float }
      (** probability a generated transaction is a two-account credit-only
          increment instead of a sendPayment *)

type t

val create :
  kind ->
  keyspace:int ->
  theta:float ->
  rng:Repro_util.Rng.t ->
  t

val setup : t -> System.t -> initial_balance:int -> unit
(** Materialize initial state in every shard (SmallBank account balances;
    KVStore needs nothing).  Checking balances are written at once;
    savings balances, which no generated transaction touches, are one
    {!Repro_ledger.State.defer} fill over the shard states, run when a
    reader first needs them (a savings key, a snapshot, a root, a state
    transfer).  Either way every reader sees what funding both at once
    would show. *)

val next_tx : t -> System.t -> client:int -> Repro_ledger.Tx.t
(** Generate the next transaction (fresh txid, current virtual time). *)

val start_closed_loop :
  t -> System.t -> clients:int -> outstanding:int -> unit
(** Launch the driver: [clients] × [outstanding] windows, resubmitting on
    completion (the modified closed-loop driver of Section 7). *)

val cross_shard_fraction_seen : t -> float
(** Fraction of generated transactions that touched ≥ 2 shards. *)

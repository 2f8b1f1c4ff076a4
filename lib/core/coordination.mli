(** The operations that flow through committee consensus in the sharded
    blockchain, and the registry that maps a consensus request's [op_tag]
    to its operation.

    Single-shard transactions execute directly; a cross-shard transaction
    becomes a [Begin_tx] on the coordinating committee, one [Prepare_tx]
    per participant shard, [Vote]s back to the coordinator, and finally
    [Commit_tx] / [Abort_tx] on the participants (Figure 5).  Under the
    batched commit path many coordinator-bound steps ride one [Batch]
    carrier, so a single consensus slot orders them all. *)

type op =
  | Single of { txid : int; ops : Repro_ledger.Tx.op list }
  | Begin_tx of { txid : int; participants : int list }
  | Prepare_tx of { txid : int; ops : Repro_ledger.Tx.op list }
  | Vote of { txid : int; shard : int; ok : bool }
  | Commit_tx of { txid : int; ops : Repro_ledger.Tx.op list }
  | Abort_tx of { txid : int; ops : Repro_ledger.Tx.op list }
  | Merge_tx of { txid : int; deltas : (string * Repro_ledger.Tx.delta) list }
      (** Fast-lane delta leg (DESIGN §18): one unconditional commutative
          payload per participant shard, riding the decision position —
          no [Begin_tx]/[Prepare_tx]/[Vote] round and no lock tuples. *)
  | Batch of { batch : int; steps : op list }
      (** One consensus slot carrying many coordination steps (Begin/Vote);
          [batch] is a per-system unique id, [steps] are canonically ordered
          by {!batch_order} before submission. *)

val txid_of_op : op -> int
(** The transaction every operation belongs to; a [Batch] answers with the
    synthetic {!batch_txid} of its id (negative, disjoint from real
    transactions) so registry compaction can release it as a unit. *)

val batch_txid : int -> int
(** The synthetic registry key of batch [id]: negative, so it can never
    collide with a real transaction id. *)

val batch_order : op -> op -> int
(** Canonical deterministic order of steps within one consensus slot:
    [Begin_tx] before [Vote], then by txid, then (for votes) by shard and
    outcome.  A pure function of the steps themselves, so any submission
    interleaving sorts to the same slot content — the determinism argument
    for the batched commit path (DESIGN §15). *)

type registry

val create_registry : unit -> registry

val register : registry -> op -> int
(** Returns the [op_tag] to embed in the consensus request.  Idempotent:
    re-registering a structurally identical op (a client retry, a
    duplicated leg) returns the existing tag instead of growing the
    registry, so a long-running system's registry is bounded by the
    distinct operations still in flight. *)

val lookup : registry -> int -> op option
(** [None] for unknown tags and for tags already {!release}d. *)

val release : registry -> txid:int -> unit
(** Compaction hook: drop every entry belonging to a finished transaction
    (or, via {!batch_txid}, an executed batch).  Late retries or duplicates
    carrying a released tag fail [lookup] and are ignored by the executors
    — the decision is already applied. *)

val length : registry -> int
(** Live entries; regression surface for the retry-leak bound. *)

val op_cost : Repro_crypto.Cost_model.t -> op -> float
(** A per-operation cost model (prepares and commits touch lock tuples and
    state, begin/vote only bookkeeping; a batch sums its steps) that no run
    charges: [Pbft.try_execute] charges one [tx_execute] per request, so a
    batch carrier of up to 128 steps, or a prepare or commit leg of any op
    count, costs one plain transaction. *)

val op_bytes : op -> int
(** Wire-size contribution of the operation's payload (beyond the fixed
    request envelope); batches grow with their step count. *)

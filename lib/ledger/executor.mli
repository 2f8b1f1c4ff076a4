(** Participant-side execution of the 2PL/2PC phases (Section 6.3).

    Each shard's replicas run these functions deterministically against
    their partition state when the corresponding consensus request
    (PrepareTx / CommitTx / AbortTx) executes:

    - {b prepare}: acquire all locks for the transaction's local keys
      (writing ["L_" ^ key] tuples to the blockchain state) and validate
      preconditions (sufficient funds for debits).  Any failure votes
      PrepareNotOK and takes no locks.
    - {b commit}: apply the writes and release the locks.
    - {b abort}: release the locks without applying anything.

    Lock tuples and balances go through {!State}'s typed paths, but each
    lock is still the tuple ["L_" ^ key] in every snapshot and state root,
    and each balance its decimal string. *)

type prepare_error =
  | Lock_conflict of { key : string; holder : int }
      (** first conflicting key and the transaction holding it *)
  | Insufficient of string  (** account failing validation *)

val try_prepare : State.t -> txid:int -> Tx.op list -> (unit, prepare_error) result
(** The prepare phase.  A refusal reports what blocked it, so alternative
    concurrency-control policies (Section 6.4's future work) can decide to
    wait instead of aborting.  A refused prepare leaves no lock it took
    behind: a lock conflict rolls back the locks acquired so far, and a
    failed validation releases them all. *)

val commit : State.t -> txid:int -> Tx.op list -> unit
(** No-op for a transaction whose prepare this shard never executed
    (defensive: commit without locks applies nothing). *)

val abort : State.t -> txid:int -> Tx.op list -> unit

val execute_single : State.t -> txid:int -> Tx.op list -> (unit, prepare_error) result
(** Single-shard fast path: {!try_prepare}, then {!commit} on success, in
    one step, no lock tuples left behind.  A refusal changes no state. *)

val balance : State.t -> string -> int
(** Account balance helper (0 when absent). *)

val set_balance : State.t -> string -> int -> unit

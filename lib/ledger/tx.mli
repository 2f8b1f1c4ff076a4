(** Transactions over the general (non-UTXO) data model.

    A transaction is a set of read/write operations on named state keys;
    keys are hash-partitioned across [k] shards, so a transaction touching
    keys in several partitions is a cross-shard (distributed) transaction
    requiring the Section 6 coordination protocol. *)

type delta =
  | Add of int            (** commutative counter increment (any sign) *)
  | Maxi of int           (** monotone max register *)
  | Union of string list  (** grow-only set (elements must not contain [',']) *)
(** Commutative state deltas for the merge fast lane (DESIGN §18).
    [Merge] ops carry no precondition: two deltas of the same class
    always combine, so transactions made only of them need no locks. *)

type op =
  | Put of { key : string; value : string }        (** blind write (KVStore) *)
  | Get of { key : string }                        (** read *)
  | Debit of { account : string; amount : int }    (** conditional decrement *)
  | Credit of { account : string; amount : int }   (** increment *)
  | Merge of { key : string; delta : delta }       (** classified commutative op *)

type t = private {
  txid : int;
  ops : op list;
  client : int;
  submitted : float;
  mutable placed_for : int;
  mutable placed : (int * op list) list;
      (** {!placement}'s memo: the placement for [placed_for] shards.
          Private, so only {!make} and {!deserialize} build a [t] and a
          copy can never carry another transaction's placement. *)
}

val make : txid:int -> ?client:int -> ?submitted:float -> op list -> t

val key_of_op : op -> string

val keys : t -> string list
(** Distinct keys touched, sorted. *)

val shard_of_key : shards:int -> string -> int
(** Stable hash partitioning (SHA-256 based, matching Appendix B's
    uniformly-random argument-to-shard mapping).  [shards = 1] answers 0
    without hashing. *)

val placement : ?shard_of:(string -> int) -> shards:int -> t -> (int * op list) list
(** Every touched shard, ascending, with the sub-ops it must
    prepare/commit in their original order.  Memoised on the transaction
    for the last [shards] asked, so the workload's cross-shard count,
    submission, the fast lane and every leg share one hash per key; a
    call with another shard count recomputes.  [shard_of] stands in for
    [shard_of_key ~shards] when the memo is filled: a caller that already
    knows its keys' shards (the workload's per-account cache) passes them
    instead of re-hashing, and must answer exactly as [shard_of_key]. *)

val on_shard : (int * 'a list) list -> int -> 'a list
(** The items a placement (or a lane grouped like one) holds for one
    shard ([[]] for an untouched shard). *)

val shards_touched : shards:int -> t -> int list
(** Sorted distinct shard ids (read from {!placement}). *)

val is_cross_shard : shards:int -> t -> bool

val ops_for_shard : shards:int -> t -> int -> op list
(** The sub-ops a given participant shard must prepare/commit (read from
    {!placement}). *)

val pp_delta : Format.formatter -> delta -> unit

val pp_op : Format.formatter -> op -> unit

val serialize : t -> string
(** Canonical wire encoding (what block bodies and tx digests cover). *)

val deserialize : string -> (t, string) result
(** Inverse of {!serialize}. *)

val digest : t -> Repro_crypto.Sha256.digest
(** SHA-256 over the canonical encoding — the transaction id used in
    Merkle inclusion proofs. *)

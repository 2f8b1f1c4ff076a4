(** Mergeable (commutative) state for the fast-lane commit path
    (DESIGN §18, CRDV-style conflict-free replicated views).

    Three pieces: a delta algebra (each class a commutative monoid with a
    deterministic combine), one closed classifier of which operations
    commute, and a per-shard lock-free lane that buffers deltas and folds
    them into canonical state at block boundaries in a canonical order. *)

type delta = Tx.delta = Add of int | Maxi of int | Union of string list

val canon : delta -> delta
(** Canonical form ([Union] sorted and deduplicated). *)

val identity : delta -> delta
(** The identity element of the argument's class:
    [combine d (identity d) = Some (canon d)]. *)

val combine : delta -> delta -> delta option
(** Deterministic merge of two deltas; [None] across classes.
    Associative and commutative — the QCheck laws in [test_ledger]
    pin this. *)

val apply_delta : State.t -> string -> delta -> unit
(** Fold one delta into the stored value ([Add]/[Maxi] over the integer
    encoding shared with [Executor.balance]; [Union] over a sorted
    comma-joined set). *)

(** {1 Classifier} *)

val classify_op : Tx.op -> (string * delta) option
(** The one closed rule for which ops commute.  A [Tx.Merge] op is its
    own (canonical) delta; a [Tx.Credit] is an [Add] of its amount, since
    unconditional increments commute; [Put], [Get] and [Debit] (whose
    balance check depends on order) return [None].  The delta applies to
    the op's own key, so it lands on the shard the op's placement
    names. *)

val classify_placement :
  (int * Tx.op list) list -> (int * (string * delta) list) list option
(** [Some lane] iff the {!Tx.placement} is non-empty and {e every} op
    classifies — the all-mergeable test that admits a transaction to the
    fast lane.  Each shard keeps its deltas in op order, so the lane is
    grouped exactly as the placement is, and no key is hashed again. *)

(** {1 Per-shard delta lane} *)

type lane

val lane : unit -> lane

val append : lane -> State.t -> txid:int -> key:string -> delta -> unit
(** Lock-free append to the pending log (the state argument only snapshots
    the key's pre-lane base value for the audit; nothing is written). *)

val depth : lane -> int
(** Pending (unfolded) entries. *)

val log_length : lane -> int
(** Total entries ever appended. *)

val folds : lane -> int

val root : lane -> Repro_crypto.Sha256.digest
(** Chained digest over every block-boundary fold. *)

val fold_into : lane -> State.t -> int * Repro_crypto.Sha256.digest
(** Fold all pending deltas into state in canonical (key, txid, delta)
    order — a pure function of the delta set, never of arrival; returns
    the entry count and this fold's digest, and chains it into {!root}. *)

(** {1 Convergence audit} *)

type mismatch = { mkey : string; expected : string; actual : string }

val audit : lane -> State.t -> mismatch list
(** Re-fold the full delta history from each key's recorded base value and
    diff against materialised state.  Empty iff the replica's state is
    exactly the canonical fold of its delta log — the merge-convergence
    oracle checks this on every shard after adversarial schedules. *)

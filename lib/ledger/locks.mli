(** Two-phase-locking lock table (Section 6.2/6.3).

    The paper implements locks as blockchain tuples keyed ["L_" ^ acc]; the
    lock table here is that convention made explicit, layered over
    {!State}: acquiring writes the tuple, releasing deletes it, and lock
    ownership is the transaction id, so commit/abort can release exactly
    the locks their transaction wrote.  Locks are exclusive — blockchain
    transactions serialize within a shard, so shared locks buy nothing.

    {!State} keeps each tuple typed (the holder as an [int], under [key]),
    but every snapshot, state root and transfer package still shows it as
    the string key ["L_" ^ key] with the decimal holder as its data. *)

type t

val create : State.t -> t

val acquire : t -> txid:int -> string -> bool
(** [acquire t ~txid key]: true if the lock was free or already held by
    [txid] (re-entrant). *)

val acquire_all : t -> txid:int -> string list -> bool
(** All-or-nothing: on any conflict, locks taken by this call are released
    again (no partial lock sets — the 2PL growing phase either completes
    for the prepare or the participant votes PrepareNotOK). *)

val holder : t -> string -> int option

val release : t -> txid:int -> string -> unit
(** Releases only if held by [txid]. *)

val release_all : t -> txid:int -> string list -> unit

val held_by : t -> txid:int -> string list
(** All keys currently locked by a transaction (sorted). *)

val held_count : t -> int
(** Lock tuples currently held, by any transaction. *)

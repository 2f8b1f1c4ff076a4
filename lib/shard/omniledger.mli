(** OmniLedger's client-driven atomic commit (Atomix), as the liveness
    baseline of Section 6.1 (Figure 3b).

    The *client* coordinates: it obtains lock-proofs from every input
    shard (marking the inputs spent) and then instructs the output shard
    to commit.  Safety holds for UTXO, but if the client crashes or acts
    maliciously after the locks are taken, the inputs stay locked forever
    — the indefinite-blocking problem the reference committee solves. *)

type t

type tx = {
  txid : int;
  inputs : (int * string) list;  (** (shard, key) inputs to lock *)
  output_shard : int;
  output_key : string;
}

type client_behaviour = Honest | Crash_after_locks

val create : shards:int -> t

val state_of_shard : t -> int -> Repro_ledger.State.t

val execute : t -> tx -> client_behaviour -> (unit, string) result
(** Runs the lock/unlock protocol.  [Crash_after_locks] returns
    [Error "client crashed"] with the input locks left dangling. *)

val locked_keys : t -> int -> string list
(** Keys currently lock-marked in a shard — non-empty after a malicious
    client, demonstrating indefinite blocking. *)

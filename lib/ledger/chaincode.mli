(** Hyperledger-style chaincode interface.

    A chaincode exposes named functions over the shard's key-value state.
    For sharding, a single-shard function such as SmallBank's [sendPayment]
    is refactored (Section 6.3) into [prepare*] / [commit*] / [abort*]
    functions that the coordination protocol invokes; this module provides
    the dispatch plumbing, {!Kvstore_cc} and {!Smallbank_cc} the two
    BLOCKBENCH chaincodes. *)

type invocation = { fn : string; args : string list }

type response = Success of string | Failure of string

type t

val define : (State.t -> txid:int -> invocation -> response) -> t

val invoke : t -> State.t -> txid:int -> invocation -> response
(** Unknown functions return [Failure]. *)

val functions_of_ops : txid:int -> phase:[ `Prepare | `Commit | `Abort ] -> Tx.op list -> invocation
(** Bridge from the coordinator's op lists to a chaincode invocation (used
    by the sharded system so any chaincode built on {!Executor} semantics
    can serve as the participant logic). *)

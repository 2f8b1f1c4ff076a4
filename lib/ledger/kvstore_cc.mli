(** The BLOCKBENCH KVStore chaincode, sharded per Section 6.3.

    Functions:
    - ["write" ; key; value] — single-shard write
    - ["read" ; key]
    - ["prepare"; txid; (op triples)...] — acquire lock tuples, validate
    - ["commit" ; txid; ...] — apply writes, drop locks
    - ["abort"  ; txid; ...] — drop locks *)

val chaincode : Chaincode.t

val with_tx :
  string list -> (int -> Tx.op list -> Chaincode.response) -> Chaincode.response
(** Decode [txid :: flat-op-args] produced by
    {!Chaincode.functions_of_ops}; shared by chaincodes implementing the
    prepare/commit/abort split. *)

val counter_key : string -> string
(** The mergeable counter namespace (["ctr_" ^ k]). *)

val ops_of_increment : keys:string list -> amount:int -> Tx.op list
(** Commutative counter bumps — fast-lane eligible (DESIGN §18). *)

val declare_mergeable : Merge.registry -> unit
(** Declare the counter namespace ([ctr_*] credits) mergeable. *)

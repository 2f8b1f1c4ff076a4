(** The BLOCKBENCH KVStore chaincode's operations, sharded per Section 6.3.

    A KVStore transaction is a typed {!Tx.op} list (blind [Put]s, or
    counter increments); the coordination protocol runs its prepare /
    commit / abort phases through {!Executor}. *)

val counter_key : string -> string
(** The mergeable counter namespace (["ctr_" ^ k]). *)

val ops_of_increment : keys:string list -> amount:int -> Tx.op list
(** Commutative counter bumps — fast-lane eligible (DESIGN §18). *)

(** The SmallBank chaincode (H-Store benchmark as shipped with
    BLOCKBENCH), sharded per Section 6.3.

    Accounts have a checking and a savings balance, stored under
    ["chk_" ^ acc] and ["sav_" ^ acc].  Single-shard entry points mirror
    the original chaincode; [sendPayment] is additionally refactored into
    [preparePayment] / [commitPayment] / [abortPayment], which is the
    running example of the paper's implementation section. *)

val chaincode : Chaincode.t

val checking_key : string -> string

val savings_key : string -> string

val setup : State.t -> accounts:int -> initial:int -> unit
(** Create [accounts] accounts named "acc0".."accN-1" with the given
    initial checking and savings balances. *)

val send_payment_ops : src:string -> dst:string -> amount:int -> Tx.op list
(** The two-account transfer of the evaluation (reads and writes two
    different states; cross-shard whenever the accounts hash apart). *)

val checking : State.t -> string -> int

val savings : State.t -> string -> int

val total_money : State.t -> int
(** Sum of all balances — the conservation invariant for property tests. *)

val declare_mergeable : Merge.registry -> unit
(** Declare the chaincode's commutative operations (credits as [Add]
    deltas) for the fast-lane classifier. *)

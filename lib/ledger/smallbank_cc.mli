(** The SmallBank chaincode's [sendPayment] (H-Store benchmark as shipped
    with BLOCKBENCH), sharded per Section 6.3.

    Accounts have a checking and a savings balance, stored under
    ["chk_" ^ acc] and ["sav_" ^ acc].  [sendPayment] is the paper's
    running example: as a typed {!Tx.op} list it is split into the
    prepare / commit / abort phases that {!Executor} runs for the
    coordination protocol, or run single-shard by
    {!Executor.execute_single}. *)

val checking_key : string -> string

val savings_key : string -> string

val is_savings_key : string -> bool
(** Whether a key is some account's {!savings_key}: the family
    [Workload.setup] funds through {!State.defer}, since [sendPayment]
    touches checking balances only. *)

val send_payment_ops : src:string -> dst:string -> amount:int -> Tx.op list
(** The two-account transfer of the evaluation (reads and writes two
    different states; cross-shard whenever the accounts hash apart). *)

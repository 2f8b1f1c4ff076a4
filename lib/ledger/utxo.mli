(** Unspent-transaction-output model, as used by the sharded-blockchain
    baselines (Section 6.1).

    A coin is an output (owner, amount) of some transaction; a transaction
    consumes unspent coins and mints new ones of equal total value.  The
    module exists to make RapidChain's transaction-splitting executable —
    including the atomicity and isolation violations the paper
    demonstrates on it. *)

type coin_id = int

type coin = { id : coin_id; owner : string; amount : int }

type t

type tx = { inputs : coin_id list; outputs : (string * int) list }

val create : unit -> t

val mint : t -> owner:string -> amount:int -> coin
(** Faucet for test setup. *)

val coin : t -> coin_id -> coin option

val apply : t -> tx -> (coin list, string) result
(** Atomically spend the inputs and create the outputs.  Fails — changing
    nothing — if an input is missing/spent or value is not conserved
    (outputs exceed inputs). *)

val balance : t -> string -> int

val total_unspent : t -> int
(** Value conservation invariant for property tests. *)

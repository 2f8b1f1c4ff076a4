(** Typed contract DSL with automatic multi-shard transformation — the
    Section 6.4 extension ("add programming language features that, given a
    single-shard chaincode implementation, automatically analyze the
    functions and transform them to support multi-shard execution").

    A contract is written once as a list of statements over its
    parameters.  From that single definition the library derives:

    - {!compile}: the operation list a coordinator needs (usable directly
      with [System.submit], which plays the role of the §6.4 client
      library hiding the coordination protocol).  The same list runs
      single-shard through {!Executor.execute_single} or split into
      {!Executor.try_prepare} / [commit] / [abort], with no manual
      refactoring;
    - {!analyze}: which shards an invocation touches, so callers know
      whether it is a distributed transaction before submitting. *)

type arg =
  | Param of int   (** i-th invocation argument *)
  | Lit of string  (** literal *)

type amount =
  | Amount_param of int  (** i-th argument parsed as an integer *)
  | Amount_lit of int

type stmt =
  | Transfer of { from_ : arg; to_ : arg; amount : amount }
      (** guarded debit + credit *)
  | Deposit of { to_ : arg; amount : amount }
  | Withdraw of { from_ : arg; amount : amount }  (** guarded debit *)
  | Set of { key : arg; value : arg }             (** blind write *)

type t

val define : name:string -> arity:int -> stmt list -> t
(** Validates that every [Param i] satisfies [0 <= i < arity].
    Raises [Repro_util.Invariant.Violation] otherwise (also for a
    negative arity). *)

val compile : t -> args:string list -> (Tx.op list, string) result
(** Substitute arguments into the body.  Fails on arity mismatch or a
    non-integer amount argument. *)

val analyze : t -> shards:int -> args:string list -> [ `Single of int | `Cross of int list ]
(** Static shard footprint of an invocation (raises on compile failure). *)

(** Versioned key-value blockchain state (Hyperledger-style world state).

    Keys and values are strings; every write bumps the key's version so
    tests can assert serializability.  A Merkle root over the sorted
    key-value pairs anchors the state for block headers and for epoch-
    transition state transfer (Section 5.3).

    Inside, two kinds of tuple are typed: integer values ({!set_int}, the
    account balances) and the 2PL lock tuples (["L_" ^ key], Section
    6.2), whose holder is kept as an [int] under [key] itself.  Outside,
    nothing shows it: {!get}, {!get_data}, {!keys}, {!snapshot} and
    {!root} read a number as its [string_of_int] and a lock tuple as the
    string key ["L_" ^ key], exactly as if both had been {!put}.

    A family of genesis tuples can be written late ({!defer}): the fill
    runs the first time a reader could tell, so no reader ever sees the
    state without it. *)

type t

type value = { data : string; version : int }

val create : unit -> t

val get : t -> string -> value option

val get_data : t -> string -> string option

val put : t -> string -> string -> unit

val delete : t -> string -> unit

val mem : t -> string -> bool

(** {2 Typed tuples}

    Each is the string operation named in its comment, without the
    decimal round trip or, for lock tuples, the ["L_" ^ key] string. *)

val get_int : t -> string -> default:int -> int
(** [int_of_string_opt] of [get_data t key], [default] when the key is
    absent or its data is not a number. *)

val set_int : t -> string -> int -> unit
(** [put t key (string_of_int n)]. *)

val lock_holder : t -> string -> int option
(** [int_of_string_opt] of the data at ["L_" ^ key]. *)

val set_lock : t -> string -> int -> unit
(** [put t ("L_" ^ key) (string_of_int holder)]. *)

val clear_lock : t -> string -> unit
(** [delete t ("L_" ^ key)]. *)

val lock_count : t -> int
(** Number of keys of the form ["L_" ^ k] with a non-empty [k], whatever
    their data.  Leaves a pending genesis pending. *)

val locked_by : t -> int -> string list
(** Every non-empty [k] whose ["L_" ^ k] data reads as [holder]
    ({!lock_holder}), ascending.  Leaves a pending genesis pending, and
    raises [Invariant.Violation] on a lock of a key it covers (every
    access to such a key forces the genesis first). *)

(** {2 Genesis on read} *)

val defer : t list -> covers:(string -> bool) -> (unit -> unit) -> unit
(** [defer states ~covers fill] first runs any genesis still pending on
    [states], then registers [fill] as one genesis shared by all of
    them.  It runs once, when any of [states] first reads, writes or
    deletes a key [covers] accepts (a lock tuple by its base key:
    ["L_" ^ k] and {!set_lock} [k] both count as [k]), takes a
    whole-state view ({!keys}, {!root}, {!snapshot}, {!equal}) or
    receives another [defer].  It runs at once instead when one of
    [states] already holds a lock on a key [covers] accepts.  [fill]
    must write only values of keys [covers] accepts, only into
    [states], so that running it late reads exactly as running it at
    [defer]. *)

(** {2 Whole-state views} *)

val keys : t -> string list
(** Sorted. *)

val root : t -> Repro_crypto.Sha256.digest
(** Merkle root over sorted (key, value) leaves. *)

val snapshot : t -> (string * value) list
(** Sorted association list; the state-transfer payload. *)

val restore : (string * value) list -> t
(** Numbers written canonically (as [string_of_int] writes them) come
    back as typed tuples. *)

val equal : t -> t -> bool
(** Same keys, data, and versions. *)

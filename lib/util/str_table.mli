(** A hash table keyed by [string] that compares keys with [String.equal].

    [Hashtbl.Make] over [string] with [Hashtbl.hash] (the bucket function
    the generic table uses) and [String.equal]: a lookup hashes the key
    once and compares strings directly, not through the polymorphic
    [compare_val].

    Like {!Int_table}, there is no unsorted [iter]/[fold]: the only
    traversal, {!iter_sorted}, visits keys in ascending [String.compare]
    order, so the bucket layout never leaks into simulation state
    (ahl_lint rule R1). *)

type 'v t

val create : int -> 'v t
(** [create n]: an empty table sized for about [n] bindings. *)

val find_opt : 'v t -> string -> 'v option

val replace : 'v t -> string -> 'v -> unit

val remove : 'v t -> string -> unit

val length : 'v t -> int

val iter_sorted : (string -> 'v -> unit) -> 'v t -> unit
(** Apply [f] to every binding in ascending key order, over a snapshot
    taken before the first call. *)

(** A hash table keyed by [int] that hashes without a C call.

    [Hashtbl.Make] over [int] with [hash x = x land max_int]: a lookup is
    an inline mask and an [Int.equal], not [caml_hash] plus a polymorphic
    compare.  Request ids are dense counters, so the identity hash spreads
    them evenly over the buckets.

    There is no unsorted [iter]/[fold]: the only traversal, {!iter_sorted},
    visits keys in ascending order, so the bucket layout never leaks into
    simulation state (ahl_lint rule R1). *)

type 'v t

val create : int -> 'v t
(** [create n]: an empty table sized for about [n] bindings. *)

val mem : 'v t -> int -> bool

val find_opt : 'v t -> int -> 'v option

val replace : 'v t -> int -> 'v -> unit

val remove : 'v t -> int -> unit

val length : 'v t -> int

val reset : 'v t -> unit
(** Empty the table and shrink it to its initial size. *)

val iter_sorted : (int -> 'v -> unit) -> 'v t -> unit
(** Apply [f] to every binding in ascending key order, over a snapshot
    taken before the first call (like [Det.iter ~compare:Int.compare]). *)

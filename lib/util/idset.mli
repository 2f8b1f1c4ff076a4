(** A growable bitmap over non-negative integer ids.

    The set of request ids a replica has executed only ever grows between
    resets, and request ids are dense counters from 0, so one bit per id
    answers [mem] with a shift and a mask instead of a polymorphic hash
    and compare.  A committee's applied 2PC steps ([4 * txid + phase],
    txids dense from 0) are such a set too. *)

type t

val create : unit -> t
(** An empty set. *)

val mem : t -> int -> bool
(** Ids never added (including ids past the current capacity) are absent.
    Raises {!Invariant.Violation} on a negative id. *)

val add : t -> int -> unit
(** Grows the bitmap as needed.  Raises {!Invariant.Violation} on a
    negative id. *)

val clear : t -> unit
(** Empty the set and release its storage. *)

(** Binary min-heap keyed by float priority with a monotone tie-break.

    This is the event queue of the discrete-event simulator: events with
    equal timestamps pop in insertion order, which keeps simulations
    deterministic regardless of heap internals.  Formally, entries pop in
    ascending (key, insertion sequence) order.

    Keys are stored unboxed, and each value sits in one pool slot from
    {!push} to removal, so sifting never moves a pointer: a push or a
    removal makes one pointer store, not one per heap level.  {!push} and
    {!take_min} allocate nothing once the heap has grown to its high-water
    mark, and {!min_key} at most the float it returns.  A removed value is
    released by the heap at once. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-key element; ties resolve FIFO. *)

val peek_key : 'a t -> float option
(** Key of the minimum element without removing it. *)

val min_key : 'a t -> float
(** Key of the minimum element, without an option.
    Raises {!Invariant.Violation} on an empty heap. *)

val take_min : 'a t -> 'a
(** Removes and returns the minimum element, exactly as {!pop} would, but
    without allocating.  Raises {!Invariant.Violation} on an empty heap. *)

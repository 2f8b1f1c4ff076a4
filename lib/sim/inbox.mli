(** Bounded per-node message queues.

    Hyperledger v0.6 uses one shared network queue for client requests and
    consensus traffic; under load, request floods evict consensus messages
    and the protocol livelocks in view changes (Section 4.1).  AHL+'s
    optimization 1 splits the queue.  This module models both disciplines
    with explicit drop accounting so experiments can show the difference. *)

type channel = Request | Consensus

type mode =
  | Shared of int  (** one FIFO of the given capacity for both channels *)
  | Split of { request_cap : int; consensus_cap : int }
      (** two FIFOs; consensus has strict dequeue priority *)

type 'msg t

val create : mode -> 'msg t

val push : 'msg t -> channel -> 'msg -> bool
(** Enqueue; [false] means the message was tail-dropped because its queue
    was full. *)

val take : 'msg t -> 'msg
(** Removes and returns the oldest message, without allocating; in [Split]
    mode consensus messages are served first.
    @raise Repro_util.Invariant.Violation on an empty inbox. *)

val length : 'msg t -> int
(** Total queued messages across channels. *)

val dropped : 'msg t -> channel -> int
(** Cumulative drop count per channel. *)

val clear : 'msg t -> unit
(** Discard all queued messages (node crash). *)

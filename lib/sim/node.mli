(** Simulated node runtime: a serial CPU draining a bounded inbox.

    Each node processes one message at a time.  The handler runs at dequeue
    time and *charges* CPU cost for the work it performs (signature
    verification, log appends, execution...); the node stays busy for the
    charged duration before dequeuing the next message.  This serial-server
    model is what makes consensus throughput degrade with committee size:
    an O(N²) protocol makes every replica verify O(N) messages per block. *)

type 'msg t

val create :
  Engine.t ->
  id:int ->
  inbox_mode:Inbox.mode ->
  handler:('msg t -> 'msg -> unit) ->
  'msg t

val id : 'msg t -> int

val charge : 'msg t -> float -> unit
(** Occupy the CPU for [cost] more seconds.  Valid both from within the
    message handler and from timer context (leader batching, watchdogs):
    the node's busy horizon is pushed forward either way, and queued
    messages wait for it. *)

val charged : 'msg t -> float
(** Remaining busy time from now — the departure offset for messages sent
    by work that was just charged. *)

val deliver : 'msg t -> Inbox.channel -> 'msg -> bool
(** Arrival of a message from the network at the current engine time.
    Returns [false] if the inbox dropped it.  Crashed nodes ignore (and
    count) everything. *)

val inbox_dropped : 'msg t -> Inbox.channel -> int

val inbox_length : 'msg t -> int

val crash : 'msg t -> unit
(** Stop processing and discard queued messages. *)

val recover : 'msg t -> unit
(** Resume processing a crashed node (no-op on a live one).  Starts a new
    load epoch: {!busy_fraction} forgets the work charged before. *)

val is_crashed : 'msg t -> bool

val busy_fraction : 'msg t -> float
(** Fraction of virtual time since the node's creation or last recovery
    that it spent processing; a load measure for identifying bottlenecks
    (e.g. the AHLR leader). *)

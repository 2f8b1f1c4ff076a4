(** Message transport between simulated nodes.

    A send charges the source's current handler offset (messages leave when
    the CPU work that produced them is done), then the link adds
    serialization time plus jittered propagation latency from the topology.
    An installed filter can drop or delay traffic for fault injection
    (partitions, targeted message suppression). *)

type 'msg t

type verdict =
  | Deliver
  | Drop
  | Delay of float
  | Duplicate of { copies : int; spacing : float }
      (** deliver [copies] identical copies, the first on time and each
          subsequent one [spacing] seconds after the previous (adversarial
          message duplication) *)

val create : Engine.t -> topology:Topology.t -> 'msg t

val engine : 'msg t -> Engine.t

val register : 'msg t -> 'msg Node.t -> unit
(** Make a node addressable; its region comes from
    [Topology.region_of_node].  Node ids must be non-negative and unique;
    the node table is an array indexed by id, so keep them dense. *)

val send :
  'msg t -> src:'msg Node.t -> dst:int -> channel:Inbox.channel -> bytes:int -> 'msg -> unit
(** One-way message.  Unknown destinations are ignored (models a peer that
    has left). *)

val send_external :
  'msg t -> src_region:int -> dst:int -> channel:Inbox.channel -> bytes:int -> 'msg -> unit
(** A message from an entity that is not a registered node (clients). *)

val broadcast :
  'msg t -> src:'msg Node.t -> dsts:int list -> channel:Inbox.channel -> bytes:int -> 'msg -> unit
(** Send to every id in [dsts] except the source itself. *)

val spawn :
  'msg t ->
  ?base:int ->
  n:int ->
  inbox_mode:Inbox.mode ->
  handle:('c -> member:int -> 'msg -> unit) ->
  (send:(src:int -> dst:int -> channel:Inbox.channel -> bytes:int -> 'msg -> unit) ->
  charge:(member:int -> float -> unit) ->
  'c) ->
  'c * 'msg Node.t array
(** Put a committee of [n] members on the network: create and register
    nodes [base .. base+n-1] (default [base] 0), build the committee with
    member-indexed [send] (to node [base + dst]) and [charge] (every cost
    multiplied by the topology's {!Topology.cpu_scale}, read once here),
    and route each node's deliveries to [handle committee ~member].  Draws
    no randomness. *)

val set_probe : 'msg t -> Repro_obs.Probe.t -> unit
(** Install an observability probe (default {!Repro_obs.Probe.none}):
    records a delivery-latency histogram ([net.delivery_s], departure to
    arrival including serialization and fault-injected delay) and drop
    counters split by cause ([net.dropped.filter] / [net.dropped.inbox]). *)

val set_filter : 'msg t -> (src:int -> dst:int -> 'msg -> verdict) -> unit
(** Install a fault-injection filter consulted on every send ([src = -1]
    for external senders). *)

val clear_filter : 'msg t -> unit

val sent_count : 'msg t -> int
(** Total messages handed to the transport (before filtering/drops);
    the communication-overhead measure for O(N²) vs O(N) comparisons. *)

val delivered_count : 'msg t -> int

val dropped_in_network : 'msg t -> int
(** Messages eaten by the filter (not by full inboxes). *)


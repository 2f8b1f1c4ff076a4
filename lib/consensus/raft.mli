(** Raft as integrated in Quorum (Figure 2's crash-fault baseline).

    Full leader election (randomized timeouts, terms, majority votes) and
    log replication, but with Quorum's naive blockchain integration: the
    leader only constructs block [i+1] after block [i] is finalized, so
    consensus proceeds in lockstep, and every transaction pays the EVM +
    Merkle-tree execution cost that makes Quorum transactions expensive
    (Appendix C.2).  Message authentication uses cheap MACs — Raft's
    advantage — which is why its curve is flat in N but capped low. *)

type msg

type cluster

val create :
  engine:Repro_sim.Engine.t ->
  n:int ->
  commits:Repro_sim.Commits.t ->
  send:(src:int -> dst:int -> channel:Repro_sim.Inbox.channel -> bytes:int -> msg -> unit) ->
  charge:(member:int -> float -> unit) ->
  cluster
(** [commits] logs every transaction member 0 executes.  A block carries
    at most 200 requests. *)

val start : cluster -> unit

val handle : cluster -> member:int -> msg -> unit

val request : Types.request -> msg
(** Wire message a client sends (to any replica; followers pass it on to
    the leader when its next heartbeat arrives). *)

val request_channel : Repro_sim.Inbox.channel

val crash : cluster -> member:int -> unit
(** Crash-stop a member (for election tests); pair with the node's own
    [Node.crash] in the embedding. *)

val leader_id : cluster -> int option
(** Current leader if one is established (highest term wins). *)

val committed_index : cluster -> member:int -> int

val elections : cluster -> int

(** Lockstep BFT baselines: Tendermint and Istanbul BFT (Figure 2).

    Both protocols rotate the proposer every height and decide one block at
    a time — propose, prevote (all-to-all), precommit (all-to-all), commit
    — with a locking rule for safety.  Unlike Hyperledger's PBFT they
    cannot pipeline: the next height starts only when the previous block is
    final, which is exactly why they fall behind at scale (Appendix C.2).

    The IBFT flavour reproduces the lock-release defect the paper observed
    in Quorum: a replica that locked a value in a failed round does not
    properly release the lock, so a later-round proposer offering a
    different block cannot gather a quorum until the locked value is
    re-proposed — occasionally deadlocking the height for a full timeout
    cascade. *)

type flavour = Tendermint | Ibft

type msg

type committee

val create :
  engine:Repro_sim.Engine.t ->
  keystore:Repro_crypto.Keys.keystore ->
  flavour:flavour ->
  n:int ->
  commits:Repro_sim.Commits.t ->
  send:(src:int -> dst:int -> channel:Repro_sim.Inbox.channel -> bytes:int -> msg -> unit) ->
  charge:(member:int -> float -> unit) ->
  committee
(** [commits] logs every transaction member 0 executes.  Proposals carry
    at most 200 requests, and every signature and execution is charged at
    {!Repro_crypto.Cost_model.default}. *)

val start : committee -> unit

val handle : committee -> member:int -> msg -> unit

val request : Types.request -> msg
(** Wire message a client sends (to any replica; requests gossip to the
    current proposer). *)

val request_channel : Repro_sim.Inbox.channel

val height : committee -> member:int -> int

val round_changes : committee -> int

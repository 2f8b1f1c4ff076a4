(** PoET and PoET+ (Section 4.2, Appendix C.1).

    Nakamoto-style consensus: every node asks its enclave for a random
    [waitTime]; the shortest valid wait proposes the next block.  Forks
    arise when several waits expire within one block-propagation delay;
    losing blocks are stale.  PoET+ draws an extra [l]-bit value [q] inside
    the enclave and only certificates with [q = 0] are valid, shrinking the
    expected field of competitors from n to n·2^-l and with it the stale
    rate.  The paper sets l = log₂(N)/2.

    The simulation is block-level: block bodies of the configured size
    propagate over the topology's links (bandwidth + latency), the sender's
    uplink serializes its broadcast, and each node follows first-received
    fork choice with production-time tie-break — stale blocks are those
    produced but not adopted. *)

type result = {
  produced : int;       (** blocks produced across the network *)
  adopted : int;        (** blocks on the canonical chain *)
  stale_rate : float;   (** (produced - adopted) / produced *)
  throughput : float;   (** committed transactions per second *)
  mean_interval : float;(** canonical inter-block time *)
}

val run :
  ?seed:int64 ->
  ?duration:float ->
  n:int ->
  topology:Repro_sim.Topology.t ->
  block_mb:float ->
  l_bits:int ->
  unit ->
  result
(** [l_bits = 0] is plain PoET.  Blocks of [block_mb] MiB hold 500-byte
    transactions.  The target mean interval between valid certificates
    network-wide is 18 s; the per-node exponential mean is scaled by
    n·2^-l to keep it constant across configurations, as the Sawtooth
    difficulty adjustment does. *)

val plus_l_bits : n:int -> int
(** The paper's PoET+ setting l = log₂(N)/2, rounded. *)

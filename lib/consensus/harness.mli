(** Single-committee experiment runner.

    Builds an engine, a network over the given topology, one simulated node
    per replica, and a population of BLOCKBENCH-style clients; runs the
    requested PBFT-family variant for a virtual duration and reports the
    measurements the paper's figures plot.  Used directly by the Figure
    2/8/9/10/15/16/17/19/20 benches and by the integration tests. *)

type workload =
  | Open_loop of { rate : float; clients : int }
      (** Poisson arrivals totalling [rate] requests/s, split across
          clients, each bound to one replica (the BLOCKBENCH driver). *)
  | Closed_loop of { clients : int; outstanding : int }
      (** Each client keeps [outstanding] requests in flight, resubmitting
          as soon as one commits. *)

type result = {
  throughput : float;        (** committed tx/s after warmup *)
  latency_mean : float;
  latency_p50 : float;
  latency_p99 : float;
  committed : int;
  view_changes : int;        (** successful new-view adoptions *)
  view_change_attempts : int;
  blocks : int;
  consensus_cost_per_block : float;  (** observer CPU seconds, Figure 17 *)
  execution_cost_per_block : float;
  dropped_requests : int;    (** inbox tail-drops across replicas *)
  dropped_consensus : int;
  messages_sent : int;
}

val run :
  ?seed:int64 ->
  ?duration:float ->
  ?warmup:float ->
  ?byzantine:int ->
  ?adversary:Pbft.adversary ->
  ?crashes:(int * float) list ->
  ?recovers:(int * float) list ->
  ?costs:Repro_crypto.Cost_model.t ->
  ?tune:(Config.t -> Config.t) ->
  ?probe:Repro_obs.Probe.t ->
  variant:Config.variant ->
  n:int ->
  topology:Repro_sim.Topology.t ->
  workload:workload ->
  unit ->
  result
(** Defaults: seed 1, 20 s runs with 5 s warmup, no Byzantine nodes.
    [byzantine] members are picked at random from the run's seed and run
    the plain script ({!Pbft.honest}'s flags).  [adversary] replaces that
    pick: its ids and script are the committee's whole adversary — this
    wires the Fig. 16 leader attacks, which need the clique sitting on the
    early leader slots.  [crashes] is a list of [(member, time)]
    crash-fault injections ({!Pbft.crash}): the member stops at [time]
    seconds, timers included, and stays down unless an entry in
    [recovers] revives it later ({!Pbft.recover}: the inbox reopens and
    the replica catches up on the slots it missed; an entry for a live
    member does nothing).  With crashes, the observer ({!Pbft.observer})
    is the lowest-indexed honest member that never crashes.  The
    [topology] is the whole testbed: it sets every CPU charge's scale
    ({!Repro_sim.Topology.cpu_scale}) and AHLR's relay timing
    ({!Config.default}).  [tune] post-processes the default {!Config.t}
    (checkpoint interval, timeouts) for ablations.  [probe] (default
    disabled) threads observability through the committee and transport:
    PBFT phase/view-change events, network delivery latency and drop
    counters, crash instants, and a per-replica inbox-depth counter series
    sampled at 2 Hz.
    @raise Repro_util.Invariant.Violation before anything runs if
    [byzantine] exceeds [n] (and no [adversary] is given), or if both are
    given and a nonzero [byzantine] is not the adversary's id count. *)

val pp_result : Format.formatter -> result -> unit

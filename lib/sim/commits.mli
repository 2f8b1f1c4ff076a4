(** The typed per-run commit log: commits, aborts, end-to-end latencies
    and a throughput time series, all stamped with virtual time.  Named
    counters live in {!Repro_obs.Metrics}; the counts a figure prints live
    as typed fields beside the code that produces them. *)

type t

val create : Engine.t -> t

val commit : t -> count:int -> unit
(** Record [count] transactions committed at the current virtual time. *)

val commit_latency : t -> submitted:float -> unit
(** Record end-to-end latency of a transaction submitted at [submitted]
    and committed now. *)

val abort : t -> count:int -> unit

val committed : t -> int

val aborted : t -> int

val abort_rate : t -> float
(** aborted / (committed + aborted); 0 when nothing finished. *)

val throughput : t -> warmup:float -> float
(** Committed transactions per second between [warmup] and the current
    virtual time. *)

val latency_stats : t -> Repro_util.Stats.t

val throughput_series : t -> (float * float) list
(** Per-bin commit rate over the run (Figure 12 right). *)

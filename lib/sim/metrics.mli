(** Experiment metric collection: commits, latencies, named counters, and
    a throughput time series. *)

type t

val create : Engine.t -> t


val commit : t -> count:int -> unit
(** Record [count] transactions committed at the current virtual time. *)

val commit_latency : t -> submitted:float -> unit
(** Record end-to-end latency of a transaction submitted at [submitted]
    and committed now. *)

val abort : t -> count:int -> unit

val incr : t -> string -> unit
(** Bump a named counter ([view_change], [stale_block], [drop]...). *)

val add_to : t -> string -> float -> unit
(** Accumulate into a named gauge (e.g. consensus vs execution seconds). *)

val committed : t -> int

val aborted : t -> int

val abort_rate : t -> float
(** aborted / (committed + aborted); 0 when nothing finished. *)

val counter : t -> string -> int

val gauge : t -> string -> float

val throughput : t -> warmup:float -> float
(** Committed transactions per second between [warmup] and the current
    virtual time. *)

val latency_stats : t -> Repro_util.Stats.t

val throughput_series : t -> (float * float) list
(** Per-bin commit rate over the run (Figure 12 right). *)

(** Zipfian key sampler.

    Used by the workload drivers to skew key popularity; Figure 13 (right)
    sweeps the Zipf coefficient from 0 to 1.99 and reports the cross-shard
    abort rate. *)

type t

val create : n:int -> theta:float -> t
(** [create ~n ~theta] prepares a sampler over keys [0 .. n-1] with skew
    [theta >= 0].  [theta = 0] is uniform.  Precomputes the CDF in O(n).
    Raises {!Invariant.Violation} if [n <= 0] or [theta < 0]. *)

val sample : t -> Rng.t -> int
(** Draw a key; O(log n) by binary search on the CDF. *)

val pmf : t -> int -> float
(** Probability of key [i] (rank [i+1]).  Raises {!Invariant.Violation}
    outside [0 .. n-1]. *)

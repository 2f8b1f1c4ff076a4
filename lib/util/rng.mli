(** Deterministic pseudo-random number generation.

    Every stochastic component of the reproduction (simulator, workloads,
    enclave randomness) draws from an explicit [Rng.t] stream so that whole
    experiments are reproducible from a single integer seed.  The generator
    is SplitMix64 (Steele et al., OOPSLA 2014): tiny state, good statistical
    quality, and cheap [split] for deriving independent child streams. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a fresh stream from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> t
(** [split t] derives a child stream that is statistically independent of
    further draws from [t].  Used to give every node / enclave / client its
    own stream without sharing mutable state. *)

val split_named : t -> string -> t
(** [split_named t label] derives a child stream keyed by [label], so the
    stream a component receives does not depend on the order in which other
    components were created. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits t k] returns [k] uniform random bits as a non-negative int
    ([0 <= k <= 62]). *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Raises [Invalid_argument] if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean; used for Poisson
    arrival processes and PoET wait times. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller (one value per call, no caching, so the
    stream stays splittable). *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1];
    the node-to-committee assignment of Section 5.1 is a chunking of this. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val bytes : t -> int -> string
(** [bytes t n] returns [n] pseudo-random bytes (enclave [sgx_read_rand]). *)

(** Fault roster: which nodes are honest or Byzantine.

    The paper's attack experiments (Figure 8 right, Figure 16 right) make
    Byzantine replicas send conflicting messages with different sequence
    numbers to different peers; consensus implementations consult this
    roster to decide whether to misbehave.  The adaptive-corruption model
    of Section 3.3 is expressed as a scheduled corruption that takes
    effect after a delay. *)

type t

val honest : int -> t
(** [honest n]: all of nodes [0 .. n-1] honest. *)

val with_byzantine : Repro_util.Rng.t -> n:int -> count:int -> t
(** [count] distinct nodes chosen uniformly at random are Byzantine. *)

val with_byzantine_ids : n:int -> ids:int list -> t

val is_byzantine : t -> int -> bool

val byzantine_ids : t -> int list

val corrupt_after : Engine.t -> t -> int -> delay:float -> unit
(** Adaptive attacker: the corruption of an honest node takes [delay]
    seconds to come into effect (Section 3.3). *)

val byzantine_count : t -> int

val size : t -> int

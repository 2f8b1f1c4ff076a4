(** Seed-driven adversarial schedules.

    A schedule is the adversary's whole script for one run: the
    committee's {!Repro_consensus.Pbft.adversary} (which replicas are
    byzantine and how they are scripted, handed to the committee as is),
    how many client requests arrive, and a list of timed network
    perturbation events (message drops, delivery jitter, duplication,
    partitions, directed silence).  Schedules are generated from an
    explicit {!Repro_util.Rng.t}, so [(seed, schedule)] identifies a run
    bit-exactly, and serialize to a single printable line for replayable
    witnesses. *)

type event_kind =
  | Drop of float  (** drop each in-window message with this probability *)
  | Jitter of float  (** add uniform [0, d) extra delay to in-window messages *)
  | Duplicate of float  (** duplicate each in-window message with this probability *)
  | Partition of int list
      (** messages crossing the cut between this group and the rest are
          dropped while the event is active (partition-and-heal) *)
  | Silence of { from_ : int; toward : int }
      (** the directed link [from_ -> toward] is dead while active *)

type event = { start : float; stop : float; kind : event_kind }

type t = {
  adversary : Repro_consensus.Pbft.adversary;
      (** the colluding clique and its script; its [leader_attack] is
          serialized as an optional [lead=] witness token, so witnesses
          predating the leader palette replay verbatim *)
  requests : int;  (** client submissions (one every 50 ms, round-robin) *)
  events : event list;
}

val heal_time : t -> float
(** When the last perturbation event ends (0 if there are none); the
    liveness oracle grants a grace period from this point. *)

val active : event -> at:float -> bool

val size : t -> int
(** A coarse complexity measure the shrinker minimizes. *)

val candidates : t -> t list
(** One-step simplifications for the shrinker, most aggressive first:
    drop one perturbation event, disable a byzantine embellishment, shrink
    the byzantine clique (never below one member), halve the request
    stream. *)

val generate : Repro_util.Rng.t -> n:int -> f:int -> t
(** Draw a schedule for an [n]-member committee with [f] byzantine members
    (ids [0..f-1]; the split-brain script is enabled whenever [f >= 1]). *)

val to_string : t -> string
(** One-line witness form; floats are printed with enough digits to
    round-trip bit-exactly. *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Witness.Invalid_witness on malformed input. *)

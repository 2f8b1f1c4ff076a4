(** Deterministic discrete-event simulation core.

    The engine owns a virtual clock and a priority queue of pending events.
    All distributed components (nodes, network links, clients, enclaves)
    advance exclusively by scheduling callbacks; wall-clock time never
    enters the simulation, so runs are reproducible from the seed alone. *)

type t

val create : seed:int64 -> t

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Repro_util.Rng.t
(** The engine's root random stream.  Components should derive their own
    child streams via [Rng.split_named] at construction time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the callback [delay] seconds from now ([delay >= 0]). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run the callback at absolute virtual [time] (clamped to now). *)

val run : t -> until:float -> unit
(** Process events in timestamp order until the clock would pass [until].
    Events scheduled beyond the horizon stay queued; the clock finishes at
    exactly [until]. *)

val run_until_idle : ?max_events:int -> t -> unit
(** Drain the queue completely (or until [max_events]); for unit tests. *)

val events_processed : t -> int

val pending : t -> int

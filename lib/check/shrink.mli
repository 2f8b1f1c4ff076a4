(** Greedy witness minimization.

    On a violation, [minimize] tries structurally smaller schedules —
    dropping perturbation events, disabling byzantine embellishments,
    halving the request stream, shrinking the byzantine clique — and keeps
    any candidate whose deterministic replay still produces a violation of
    the same kind, iterating to a fixpoint or until [budget] replays have
    been spent. *)

val candidates : Schedule.t -> Schedule.t list
(** One-step simplifications of a schedule, most aggressive first. *)

val greedy :
  candidates:('s -> 's list) ->
  same_kind:('v -> 'v -> bool) ->
  replay:('s -> 'v option) ->
  budget:int ->
  's ->
  'v ->
  's * int
(** The loop behind every minimizer: walk [candidates] of the current
    schedule in order, adopt the first whose [replay] yields a violation
    of the [same_kind], and restart from it until no candidate reproduces
    or [budget] replays are spent.  Returns the shrunk schedule and the
    replays spent. *)

val minimize :
  replay:(Schedule.t -> Oracle.violation option) ->
  budget:int ->
  Schedule.t ->
  Oracle.violation ->
  Schedule.t * int
(** [minimize ~replay ~budget s v] returns the shrunk schedule and the
    number of replays spent.  [replay] must be deterministic and return
    the first violation of a candidate run, if any. *)

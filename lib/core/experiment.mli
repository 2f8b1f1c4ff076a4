(** The paper's evaluation (Tables 1–3, Figs. 2 and 8–22, Appendices A/B,
    and two extensions) as one registry of figures, keyed by id.

    Every figure runs its simulations with deterministic seeds and returns
    a {!Results.figure} whose panels mirror the paper's plot panels.
    [quick] shrinks sweep points and durations for smoke runs; the
    defaults regenerate the full x-axes at shorter virtual durations than
    the paper's wall-clock runs (shapes are stable well before). *)

val set_jobs : int -> unit
(** Fix the worker-domain count for subsequent figures (replacing any
    live pool).  Without a call, the count is
    [Domain.recommended_domain_count ()].  The rendered figures are
    bit-identical for every worker count; only wall time changes.
    Do not call while a figure is running. *)

val jobs_in_use : unit -> int
(** The worker count the next figure will run with. *)

val record :
  (quick:bool -> Results.figure) -> quick:bool -> Results.figure * Repro_obs.Hub.t
(** [record f ~quick] renders [f ~quick] with a fresh observability hub
    installed and returns the figure with that hub.  It first drops the
    memoized PBFT/PoET sweeps, so the hub holds every run the figure
    makes, whatever ran before: the figure and the hub's dumps are a
    function of the figure and [quick] alone.  Runs request probes under
    names derived from their parameters, and the dumps are sorted by
    name, so they are byte-identical for every worker count.  Calling a
    figure directly shares the memoized sweeps with earlier figures and
    records nothing.  Do not call while a figure is running. *)

val all_ids : string list
(** Every registered id, in the paper's order: [table1]..[table3],
    [fig2], [fig8]..[fig22] (with [fig13_fastlane] after [fig13]),
    [appendix_a], [appendix_b], [ablation_cc]. *)

val by_id : string -> (quick:bool -> Results.figure) option
(** The figure registered under an id, if any. *)

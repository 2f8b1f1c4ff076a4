(** The paper's evaluation (Tables 1–3, Figs. 2 and 8–22, Appendices A/B,
    and two extensions) as one registry of figures, keyed by id.

    Every figure runs its simulations with deterministic seeds and returns
    a {!Results.figure} whose panels mirror the paper's plot panels.
    [quick] shrinks sweep points and durations for smoke runs; the
    defaults regenerate the full x-axes at shorter virtual durations than
    the paper's wall-clock runs (shapes are stable well before). *)

val set_jobs : int -> unit
(** Fix the worker-domain count for subsequent figures (replacing any
    live pool).  Without a call, the count comes from [BENCH_JOBS] or
    [Domain.recommended_domain_count].  The rendered figures are
    bit-identical for every worker count; only wall time changes.
    Do not call while a figure is running. *)

val jobs_in_use : unit -> int
(** The worker count the next figure will run with. *)

val set_hub : Repro_obs.Hub.t option -> unit
(** Install (or clear) an observability hub for subsequent figures.  The
    shared runners request per-run probes under names derived purely
    from their parameters (the memo keys), so the hub's sorted-by-name
    dumps are byte-identical for every [-j] worker count.  Runs already
    cached by the memo tables record nothing; call {!reset_caches} first
    for a complete trace.  Do not swap hubs while a figure is running. *)

val reset_caches : unit -> unit
(** Drop the memoized PBFT/PoET sweeps so the next figure recomputes
    them (used by the determinism replay test).  Do not call while a
    figure is running. *)

val all_ids : string list
(** Every registered id, in the paper's order: [table1]..[table3],
    [fig2], [fig8]..[fig22] (with [fig13_fastlane] after [fig13]),
    [appendix_a], [appendix_b], [ablation_cc]. *)

val by_id : string -> (quick:bool -> Results.figure) option
(** The figure registered under an id, if any. *)

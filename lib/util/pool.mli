(** Fixed-size domain pool with deterministic, submission-ordered joins.

    The experiment runner fans independent seeded simulations across OCaml
    5 domains.  Determinism is preserved by construction: every task is a
    self-contained computation (its own [Engine]/[Rng]), and results are
    observed only through {!await}, in whatever order the submitter chooses
    — so a [jobs]-way run produces output bit-for-bit identical to the
    sequential one.

    Tasks must not {!await} futures of the same pool from inside a worker
    (the pool does not steal work while blocked, so that can deadlock).
    Submit from one coordinating domain and join there. *)

type t

type 'a future

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the worker count when the
    caller fixes none (see [ahl_cli experiment -j]). *)

val create : jobs:int -> t
(** A pool of [jobs] workers ([jobs] is clamped to at least 1).  With
    [jobs = 1] no domain is spawned: tasks run inline at submission, which
    makes the degenerate pool exactly the sequential execution. *)

val jobs : t -> int
(** The worker count the pool was created with. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  Exceptions escaping the task are captured and
    re-raised (with their backtrace) by {!await}. *)

val await : 'a future -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception.  Idempotent. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] runs [f] on every element concurrently and returns
    results in the order of [xs] (submission order). *)

val shutdown : t -> unit
(** Wait for queued tasks to drain and join every worker domain.
    The pool must not be used afterwards. *)

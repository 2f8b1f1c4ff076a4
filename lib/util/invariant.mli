(** Typed precondition failures, raised by every library from [Repro_util]
    up (negative delay, bad region, duplicate registration, ...).

    Raised instead of the anonymous [Invalid_argument]/[Failure] that
    ahl_lint rule R3 bans: the message names the function that rejected
    the input, and callers can match on one constructor without
    string-matching stdlib exceptions. *)

exception Violation of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Violation} with the formatted message. *)

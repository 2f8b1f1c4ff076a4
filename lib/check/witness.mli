(** The one-line witness codec shared by {!Schedule} and {!Xschedule}.

    A witness is a space-separated token list; the helpers here print and
    parse its numeric pieces.  Every parser raises {!Invalid_witness} on
    malformed text and nothing else, so a witness read from outside the
    program (the command line) can only fail in one typed way. *)

exception Invalid_witness of string
(** The payload is the offending text: a token, a value, or the whole
    witness line. *)

val fl : float -> string
(** [%.17g]: round-trips every float bit-exactly through {!float}, so a
    printed witness replays the identical schedule. *)

val float : string -> float
(** A float in any syntax [float_of_string] reads. *)

val nat : string -> int
(** A non-negative int: counts, member ids, shard and tx indices. *)

val nats : char -> string -> int list
(** [nats sep s]: a [sep]-separated list of {!nat}s. *)

val ids : int list -> string
(** Comma-separated ids, or [-] for none. *)

val ids_of : string -> int list
(** Inverse of {!ids}. *)

val field : witness:string -> string -> string -> string
(** [field ~witness key tok] is [v] when [tok] is [key=v]; otherwise the
    whole [witness] is malformed. *)

val timed : string -> string list * float * float
(** Split a timed token [kind:...:start:stop] on [:] into its leading
    parts and its [start, stop) window. *)

(** Log-space probability arithmetic for the security calculations of
    Section 5.

    Committee sizing needs tail probabilities as small as 2^-20 of a
    hypergeometric distribution with populations of a few thousand;
    computing binomial coefficients directly overflows, so everything is
    done with log-gamma. *)

val log_gamma : float -> float
(** Natural log of the gamma function (Lanczos approximation, accurate to
    ~1e-10 for arguments >= 0.5, reflected below). *)

val log_choose : int -> int -> float
(** [log_choose n k] = ln (n choose k); [neg_infinity] when the coefficient
    is zero ([k < 0] or [k > n]). *)

val log_add : float -> float -> float
(** ln(e^a + e^b) without overflow. *)

val hypergeom_log_pmf : total:int -> bad:int -> draws:int -> k:int -> float
(** ln Pr[X = k] where X counts bad items among [draws] samples without
    replacement from a population of [total] items of which [bad] are bad. *)

val hypergeom_tail : total:int -> bad:int -> draws:int -> at_least:int -> float
(** Pr[X >= at_least] — Equation 1 of the paper: the probability that a
    committee of [draws] nodes sampled from [total] nodes ([bad] Byzantine)
    contains at least [at_least] Byzantine members. *)

val hypergeom_log_tail : total:int -> bad:int -> draws:int -> at_least:int -> float
(** ln of the same tail, usable below double underflow. *)

val binomial_tail : n:int -> p:float -> at_least:int -> float
(** Pr[X >= at_least] for X ~ Binomial(n, p); the with-replacement limit
    used for sanity cross-checks. *)

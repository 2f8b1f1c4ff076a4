(** RandomnessBeacon enclave (Section 5.1).

    At each epoch [e] the enclave draws two independent random values
    [q] (of [l] bits) and [rnd] with [sgx_read_rand], and returns a signed
    certificate ⟨e, rnd⟩ iff [q = 0].  Two defenses matter:

    - {b once per epoch}: a host cannot re-invoke to fish for a favourable
      [rnd] — re-invocation for an epoch already served (or refused)
      returns nothing new;
    - {b restart guard} (Appendix A): after a restart the enclave refuses
      to serve any epoch [e <> 0] until ∆ has elapsed since instantiation,
      so restarting cannot reopen the once-per-epoch window within the
      epoch's locking period; the genesis epoch is protected by a hardware
      monotonic counter instead. *)

type cert = { epoch : int; rnd : int64; signature : Repro_crypto.Keys.signature }

type outcome =
  | Cert of cert      (** q = 0: a certificate to broadcast *)
  | Unlucky           (** q <> 0: nothing to broadcast this epoch *)
  | Already_invoked   (** the epoch was already served this generation *)
  | Guard_active      (** restarted less than ∆ ago (e <> 0) *)
  | Genesis_replayed  (** e = 0 after a restart: monotonic counter defense *)

type t

val create : Enclave.t -> Mono_counter.t -> l_bits:int -> delta:float -> t
(** [l_bits] is the bit length of [q]; [delta] the network's synchronous
    bound ∆ used by the restart guard.  Raises
    {!Repro_util.Invariant.Violation} unless [0 <= l_bits <= 62]. *)

val invoke : t -> epoch:int -> outcome
(** Charges the beacon-invocation cost. *)

val verify : Repro_crypto.Keys.keystore -> cert -> bool

val restart : t -> unit
(** Host restarts the enclave, clearing the volatile served-epoch set. *)

val repeat_probability : l_bits:int -> n:int -> float
(** Probability that {e no} node in a network of [n] obtains a certificate,
    forcing a retry: (1 - 2^-l)^n. *)

val expected_certs : l_bits:int -> n:int -> float
(** Expected number of broadcast certificates per round: n · 2^-l — the
    communication-overhead side of the trade-off. *)

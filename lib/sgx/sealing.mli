(** Data sealing with explicit rollback-attack modeling.

    Sealed blobs are bound to the sealing enclave's measurement and
    identity; a different enclave cannot unseal them, and tampered blobs
    are rejected.  What sealing does {e not} protect against is replay: the
    malicious host can feed a stale but correctly sealed blob to a
    restarted enclave (Matetic et al., USENIX Security'17).  Tests and the
    Appendix-A defense exercise exactly that attack via [`any sealed`]
    values kept by the host. *)

type 'a sealed

val seal : Enclave.t -> 'a -> 'a sealed
(** Charges the sealing cost. *)

val unseal : Enclave.t -> 'a sealed -> 'a option
(** [None] if the blob was sealed by a different enclave identity or
    measurement, or was tampered with. *)

val tamper : 'a sealed -> 'a -> 'a sealed
(** Host-side bit-flip: replace the payload without access to the sealing
    key.  Unsealing must fail. *)

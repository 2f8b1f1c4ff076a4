(** Remote attestation: proving that a peer runs the right enclave.

    Committee members attest each other once per epoch (the paper measured
    ~2 ms per attestation, cacheable).  A quote binds the enclave's
    measurement to its signing identity; verifiers check the signature and
    compare the measurement against the expected value. *)

type quote = {
  enclave_id : int;
  measurement : Repro_crypto.Sha256.digest;
  signature : Repro_crypto.Keys.signature;
}

val quote : Enclave.t -> quote
(** Produce an attestation quote; charges the remote-attestation cost. *)

val verify :
  Repro_crypto.Keys.keystore ->
  expected_measurement:Repro_crypto.Sha256.digest ->
  quote ->
  bool
(** True iff the signature is genuine for [enclave_id] and the measurement
    matches.  (Verification cost is charged by the caller, who knows whose
    CPU is doing the work.) *)

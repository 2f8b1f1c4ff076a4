(** Shared vocabulary of the consensus protocols. *)

type request = {
  req_id : int;       (** globally unique, non-negative and dense from 0:
                          replicas keep executed ids in a bitmap *)
  client : int;       (** submitting client id *)
  submitted : float;  (** virtual submission time, for latency accounting *)
  op_tag : int;       (** opaque handle the application layer resolves to an
                          operation (chaincode call, coordination step...) *)
}

val request : req_id:int -> client:int -> submitted:float -> ?op_tag:int -> unit -> request

val request_bytes : int
(** Wire size of one client request, 240 bytes: a 200-byte payload in a
    40-byte envelope.  Every request has this size. *)

type phase = Prepare_phase | Commit_phase

val phase_log : phase -> int
(** A2M log index for a phase (pre-prepare uses log 0). *)

val digest_of_batch : request list -> int
(** Structural batch digest used as the value agreed upon.  (Real SHA-256
    hashing of batches is exercised by the ledger layer; consensus charges
    hash cost to the simulated clock instead — see DESIGN.md.) *)

val batch_bytes : request list -> int
(** Payload bytes of a batch: 200 per request (envelopes are not
    re-sent inside a block). *)

(** Protocol variants and parameters for the PBFT family.

    One replica implementation ({!Pbft}) covers the paper's four protocols;
    a {!variant} selects the quorum rule, the use of attested logs, and the
    three optimizations of Section 4.1.  A {!t} holds the few settings that
    some experiment or checker varies; the rest are module constants. *)

type variant = {
  name : string;
  quorum_rule : [ `Third | `Half ];
      (** [`Third]: N = 3f+1, quorums of 2f+1 (vanilla PBFT).
          [`Half]:  N = 2f+1, quorums of f+1 (TEE-assisted, no
          equivocation). *)
  attested : bool;        (** messages carry A2M append proofs *)
  split_queues : bool;    (** optimization 1: separate request channel *)
  forward_requests : bool;(** optimization 2: forward to leader, no
                              request re-broadcast *)
  relay : bool;           (** optimization 3: leader vote aggregation *)
}

val hl : variant
(** Vanilla PBFT as in Hyperledger v0.6. *)

val ahl : variant
(** Attested HyperLedger: TEE quorums, no communication optimizations. *)

val ahl_opt1 : variant
(** AHL + separate queues only (the Figure 10 ablation point). *)

val ahl_plus : variant
(** AHL + optimizations 1 and 2. *)

val ahlr : variant
(** AHL + optimizations 1, 2 and 3 (leader relay). *)

val all_variants : variant list

type t = {
  variant : variant;
  n : int;                    (** committee size *)
  checkpoint_interval : int;  (** blocks between checkpoints *)
  progress_timeout : float;   (** no-execution watchdog before view change *)
  vc_backoff_cap : int;       (** cap on the view-change retry exponent:
                                  the vc deadline grows as
                                  [progress_timeout * 2^min(backoff, cap)]
                                  so consecutive failed view changes can
                                  never inflate the retry delay past
                                  recovery within a finite horizon *)
  relay_timeout : float;      (** AHLR: max wait for the leader's quorum
                                  certificate before suspecting it *)
  relay_tail_prob : float;    (** AHLR: probability that one aggregation
                                  hits the heavy tail (EPC paging /
                                  enclave-transition storms on real SGX) *)
}
(** The settings some run varies; everything else is one of the constants
    below. *)

(** {1 Fixed parameters}

    Hyperledger v0.6's batching and pipelining and the per-message costs
    every committee shares.  No run varies them. *)

val batch_max : int
(** Max requests per block (200). *)

val batch_delay : float
(** Propose a partial batch after this long (50 ms). *)

val pipeline_window : int
(** Outstanding pre-prepares (HL pipelining, 8). *)

val watermark_window : int
(** L: max seq distance beyond a stable checkpoint (128).  A run that
    never advances its stable checkpoint can order at most this many
    slots. *)

val relay_tail_factor : float
(** AHLR: cost multiplier of a tail aggregation (35). *)

val consensus_msg_bytes : int
(** Wire size of a vote-like message (160 bytes). *)

val request_parse_cost : float
(** CPU per request intake (15 µs). *)

val client_sig_verify : float
(** Per-transaction client-signature verification (500 µs), charged when a
    replica validates a proposed batch (amortized batch ECDSA): PBFT's
    pre-prepare here, and the {!Lockstep} baselines' proposals. *)

val msg_parse_cost : float
(** CPU per consensus message intake, before signature verification
    (10 µs). *)

(** {1 Committee arithmetic} *)

val f_of : t -> int
(** Tolerated failures for the committee size under the variant's rule. *)

val quorum_size : t -> int
(** Matching votes (including one's own) needed to advance a phase. *)

val n_for_f : variant -> f:int -> int
(** Committee size achieving tolerance [f] ([3f+1] or [2f+1]). *)

val default : variant -> n:int -> topology:Repro_sim.Topology.t -> t
(** Paper-calibrated defaults: checkpoints every 16 blocks and a 2 s
    watchdog with its retry exponent capped at 3.  AHLR's relay timing
    comes from the topology: a 1 s deadline with a 1% tail within one
    region, and across regions ({!Repro_sim.Topology.regions} > 1) a 2.5 s
    deadline, which absorbs round-trip jitter, with a 0.5% tail. *)

val inbox_mode : t -> Repro_sim.Inbox.mode
(** One shared queue of 5000 messages, or, with [split_queues], a
    4096-message request queue beside an 8192-message consensus queue. *)

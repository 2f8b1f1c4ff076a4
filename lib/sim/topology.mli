(** Network topology: node placement, latency, bandwidth and CPU speed.

    Two families are provided, matching the paper's two testbeds:
    - [lan]: the in-house 100-server cluster of 3.5 GHz Xeons
      (sub-millisecond latency, gigabit links);
    - [gcp n]: 2-vCPU Google Cloud Platform instances in the first [n] of
      the 8 regions of Table 3 (measured inter-region round-trip latencies). *)

type t

val lan : unit -> t
(** Single-region cluster: 0.3 ms one-way propagation delay with a 10%
    relative jitter, and 1000 Mbps links. *)

val constrained_lan : latency_ms:float -> bandwidth_mbps:float -> t
(** The PoET experiment setup (Appendix C.1): cluster links throttled to a
    given latency and bandwidth (the paper used 100 ms and 50 Mbps). *)

val gcp : int -> t
(** [gcp n] uses the first [n] regions of Table 3 ([1 <= n <= 8]); nodes
    are placed round-robin across regions.  WAN bandwidth defaults to
    100 Mbps per flow. *)

val regions : t -> int

val cpu_scale : t -> float
(** Multiplier on every CPU charge: 1.0 on the cluster ([lan],
    [constrained_lan]), 3.5 on the GCP instances ([gcp]). *)

val region_of_node : t -> int -> int
(** Round-robin placement of node ids onto regions. *)

val latency : t -> Repro_util.Rng.t -> src_region:int -> dst_region:int -> float
(** One-way propagation delay in seconds, jittered.  Intra-region delay is
    small but non-zero. *)

val transfer_time : t -> bytes:int -> float
(** Serialization time of a message of [bytes] on one link. *)

val gcp_region_names : string array
(** The 8 zone names of Table 3, in matrix order. *)

val gcp_latency_matrix_ms : float array array
(** Table 3: one-way(+) latencies in milliseconds between the 8 zones (the
    paper reports RTT-like values; we use them directly as one-way delays,
    which only rescales time uniformly). *)

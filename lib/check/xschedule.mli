(** Cross-shard adversarial schedules: seeded 2PC coordinator faults over
    the whole {!Repro_core.System} (shard committees plus R), extending the
    single-committee {!Schedule} adversary.

    A schedule scripts the workload (how many cross-shard transactions,
    which clients go silent after BeginTx, which attempt overdrafts,
    whether all debits contend on one hot key) and a list of timed faults
    over the coordination legs themselves — the Figure-5 messages —
    rather than over raw network packets. *)

type leg =
  | Prepare  (** PrepareTx, coordinator/client -> participant shard *)
  | Vote  (** a shard's quorum answer relayed to R *)
  | Decision  (** CommitTx/AbortTx -> participant shard *)
  | Mdelta
      (** a fast-lane delta leg (MergeTx -> participant shard): no
          prepare/vote round to attack, so dropping/delaying these races
          the client's retry against the block-boundary fold *)

type fault_kind =
  | Drop_leg of { leg : leg; p : float }  (** lose matching legs w.p. [p] *)
  | Dup_leg of { leg : leg; p : float }  (** re-deliver matching legs w.p. [p] *)
  | Delay_leg of { leg : leg; d : float }
      (** hold matching legs for [d] seconds — past
          [client_fallback_timeout] when [d] is large *)
  | Crash_ref of { member : int }  (** crash a backup replica of R for the window *)
  | Cut_shard of int
      (** partition this participant shard from R: both its incoming legs
          and its outgoing votes are lost *)
  | Crash_observer of { shard : int }
      (** crash the shard's observer replica (member 0, where state
          materializes) for the window — execution on that shard stalls
          until recovery and client retries / R's sweeps must re-drive *)
  | Epoch_wave of { epoch : int }
      (** run a full {!Repro_core.System.advance_epoch} transition
          (Batched_log waves) starting at the window's [start], racing
          the 2PC legs against transitioning replicas; [stop] only pads
          the quiescence horizon *)

type fault = { start : float; stop : float; kind : fault_kind }

type t = {
  txs : int;  (** cross-shard transfers submitted (txids 1..txs) *)
  malicious : int list;  (** tx indices whose client stops relaying after BeginTx *)
  overdraft : int list;  (** tx indices transferring more than their funding *)
  contended : bool;  (** all debits drawn from one hot account on shard 0 *)
  faults : fault list;
}

val heal_time : t -> float
(** When the last fault window closes (0 if none). *)

val active : fault -> at:float -> bool

val size : t -> int
(** Structural size, the shrinker's objective. *)

val candidates : t -> t list
(** One-step simplifications for the shrinker, most aggressive first:
    drop one fault, un-contend the workload, clear the overdrafts, shrink
    the silent-client set (never below one), halve the transaction
    count. *)

val generate : Repro_util.Rng.t -> shards:int -> committee_size:int -> t
(** The legacy draw: faults target the three 2PC legs only, so
    pre-fast-lane seeds regenerate the identical schedule. *)

val generate_lane : Repro_util.Rng.t -> shards:int -> committee_size:int -> t
(** Fast-lane trial draw: extends {!generate} with extra faults whose leg
    draw includes {!Mdelta}, and clears [malicious] — the lane's delta
    legs are client-driven, so silent clients are the (separately tested)
    2PC attack, not a lane schedule's job. *)

val to_string : t -> string
(** One-line witness; floats print as [%.17g] so [of_string] replays the
    bit-identical schedule. *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Witness.Invalid_witness on malformed input. *)

(** The PBFT family: HL, AHL, AHL+, AHLR (Section 4.1).

    One replica implementation parameterized by {!Config.variant}:

    - {b HL} — vanilla PBFT: pre-prepare / prepare / commit with 2f+1
      quorums out of N = 3f+1, pipelined within a window, checkpoints and
      watermarks, and the view-change / new-view protocol.  Client requests
      received by a replica are re-broadcast to everyone, and requests share
      one bounded network queue with consensus traffic.
    - {b AHL} — every protocol message carries an attested append-only
      memory proof; equivocation is impossible, so quorums shrink to f+1
      out of N = 2f+1.
    - {b AHL+} — AHL plus optimization 1 (separate request/consensus
      queues) and optimization 2 (requests are forwarded to the leader
      instead of broadcast).
    - {b AHLR} — AHL+ plus optimization 3: replicas send signed votes to
      the leader only; the leader's enclave aggregates f+1 of them into one
      quorum certificate (O(N) messages, but a serial hotspot and a
      view-change hazard when the certificate misses the relay deadline).

    {!spawn} puts a committee on a {!Repro_sim.Network.t} and keeps its
    nodes; the embedding supplies an [execute] upcall.  Committee members
    are addressed by their index 0..n-1. *)

open Types

type msg =
  | Request of { req : request; relayed : bool }
  | Forward of request
  | Pre_prepare of { view : int; seq : int; batch : request list; digest : int }
  | Prepare of { view : int; seq : int; digest : int; sender : int }
  | Commit of { view : int; seq : int; digest : int; sender : int }
  | Checkpoint of { seq : int; digest : int; sender : int }
      (** [digest] is the sender's execution-chain root at [seq] (see
          {!exec_root}) — a quorum of matching roots certifies the state *)
  | Fetch of { since : int; sender : int }
      (** catch-up request: send me what was decided after [since] *)
  | Fetch_resp of {
      sender : int;
      view : int;
          (** the responder's current view — the recovering replica's only
              way to learn a view change it slept through *)
      ckpt : (int * int * int list) option;
          (** latest certificate: (seq, root, quorum of signers) *)
      blocks : (int * int * int * request list) list;
          (** contiguous (seq, view, digest, batch) slots to replay *)
    }
  | View_change of {
      target : int;
      sender : int;
      last_stable : int;
      prepared : (int * int * int * request list) list;
          (** (seq, view, digest, batch) certificates *)
    }
  | New_view of {
      view : int;
      sender : int;
      reproposals : (int * int * request list) list;  (** (seq, digest, batch) *)
    }
  | Relay_vote of {
      phase : phase;
      view : int;
      seq : int;
      digest : int;
      sender : int;
      vote : Repro_crypto.Keys.signature;
    }
  | Quorum_cert of {
      phase : phase;
      view : int;
      seq : int;
      digest : int;
      proof : Repro_sgx.Aggregator.quorum_proof;
    }

type committee

type leader_attack =
  | Leader_stall
      (** win the leader slot (campaign in view changes, emit a credible
          New_view), then withhold every pre-prepare — the classic faulty
          primary that must be deposed by timeout, not outvoted *)
  | Leader_serve_only of int list
      (** as leader, serve pre-prepares and commit votes only to the listed
          peers; the rest starve and must rely on relay or catch-up *)
  | Leader_drip of float
      (** as leader, emit at most one batch every given interval — pick it
          just under the watchdog period to probe the detection boundary
          (throughput collapses but no timeout ever fires) *)

(** A committee's whole adversary, fixed at {!spawn}: which members are
    Byzantine and how they behave (one script shared by all of them). *)
type adversary = {
  byzantine : int list;  (** the colluding members, each in [0..n-1] *)
  split_brain : bool;
      (** as view-0 leader, propose two real conflicting batches and drive
          each committee half to commit its own (the Figure 8/16 attack);
          non-leader byzantine replicas collude by voting both sides.  When
          off, byzantine replicas answer every overheard pre-prepare with
          garbage prepare votes and per-half conflicting digests on
          fabricated batches (burns honest CPU but can never commit). *)
  silent_toward : int list;  (** peers the byzantine replicas never message *)
  stale_view_replay : bool;
      (** stash overheard prepares and replay them after a new view *)
  leader_attack : leader_attack option;
      (** byzantine replicas track views, campaign for leader slots, win
          them with credible New_views, and then attack them — the Fig. 16
          right-panel adversary.  [None]: byzantine replicas never lead. *)
}

val honest : adversary
(** No byzantine member.  Its flags (no split brain, no silencing, no stale
    replay, no leader attack) are the plain script: [{ honest with
    byzantine = ids }] makes [ids] add vote noise and naive equivocation
    only — the behaviour used by the throughput experiments. *)

val set_commit_hook :
  committee -> (member:int -> view:int -> seq:int -> digest:int -> batch:request list -> unit) -> unit
(** Observe every block execution at every replica: the hook fires with the
    full decided batch (including requests already executed through an
    earlier block) just before the [execute] upcall.  This is the committed
    trace the safety oracles consume. *)

val spawn :
  ?base:int ->
  msg Repro_sim.Network.t ->
  keystore:Repro_crypto.Keys.keystore ->
  costs:Repro_crypto.Cost_model.t ->
  config:Config.t ->
  adversary:adversary ->
  execute:(member:int -> seq:int -> request list -> unit) ->
  committee * msg Repro_sim.Node.t array
(** Put a committee of [config.n] members on the network
    ({!Repro_sim.Network.spawn}): nodes [base .. base+n-1] (default [base]
    0) with {!Config.inbox_mode}'s inboxes, each delivering to its
    replica.  The attested variants register one enclave per member under
    the same ids (pass a range disjoint from other committees); trace
    events name member [i] ["r<base+i>"].  [adversary] names members by index.
    [execute] is called on every replica with the not-yet-executed requests
    of each decided batch, in sequence order; an embedding that logs
    commits does so for [member = observer c] only.  Returns the committee
    and its nodes, for load and inbox readings.  Nothing runs until
    {!start}.
    @raise Repro_util.Invariant.Violation if a byzantine id is outside
    [0..n-1]. *)

val set_observer : committee -> int -> unit
(** Override the observer (default: lowest-indexed honest member).  Must
    be in [0..n-1]; pass a member that stays honest and alive, or the
    {!tally} and the embedding's commit log go dark.  Call before
    {!start}. *)

val set_probe : committee -> Repro_obs.Probe.t -> unit
(** Install an observability probe (default {!Repro_obs.Probe.none}):
    phase transitions, block intervals and per-reason view-change counters
    are recorded at the observer replica; equivocation refusals and
    view-change starts at every replica.  The disabled probe costs one
    branch per site. *)

val start : committee -> unit
(** Arm leader batching and watchdog timers (they run as local engine
    timers, not network messages — a flooded inbox cannot suppress a
    timeout).  Call once, after {!spawn} and the embedding's setters. *)

(** {2 Lifecycle}

    A member's node is up or crashed, and the committee reads liveness
    from it: a crashed member receives nothing and fires no timers.
    Embeddings crash and revive members only through these operations;
    DESIGN §16 describes the two ways back in. *)

val crash : committee -> member:int -> unit
(** Take the member's node down, dropping its queued messages.  Its
    consensus state stays. *)

val recover : committee -> member:int -> unit
(** Bring a crashed member's node back up and catch it up: its progress
    clock restarts and it asks f+1 peers for the slots it missed,
    replaying them (or taking a snapshot, see {!set_snapshot_hook}).  A
    no-op on a live member: no [Fetch] is sent. *)

val swap : committee -> member:int -> window:float -> unit
(** Reconfigure the member's slot (Section 5.3): its node goes down now
    and comes back after [window] seconds (state fetch and
    re-attestation), then catches up as in {!recover}.  Any member but the
    {!observer} is a newcomer: its state is wiped now ({!reset_member}),
    and on rejoin it installs the observer's latest checkpoint certificate
    instead of replaying below it.  The observer keeps its state.  The
    rejoin runs even if another fault revived the node in the window. *)

val reset_member : committee -> member:int -> unit
(** Wipe a member's consensus state (logs, votes, checkpoints, attested
    log) as if a brand-new node took over its slot: {!swap}'s state half.
    A crashed member so wiped rejoins through {!recover}. *)

(** {2 Messages and introspection} *)

val request : request -> msg
(** The wire message a client sends to any member (a plain request; the
    replica relays or forwards it according to the variant). *)

val request_channel : Repro_sim.Inbox.channel

val consensus_channel : Repro_sim.Inbox.channel

val bytes_of_msg : msg -> int
(** Wire size estimate used by embeddings when sending. *)

val leader_of_view : committee -> int -> int

val current_view : committee -> member:int -> int

val last_executed : committee -> member:int -> int

type tally = private {
  mutable blocks : int;  (** blocks executed *)
  mutable view_changes : int;  (** new views adopted *)
  mutable view_change_attempts : int;  (** view changes started *)
  mutable consensus_cost : float;  (** CPU seconds charged to consensus (Figure 17) *)
  mutable execution_cost : float;  (** CPU seconds charged to transaction execution *)
}

val tally : committee -> tally
(** The figure counts, all taken at the {!observer} replica and updated in
    place as the run goes (read-only outside this module). *)

val observer : committee -> int
(** The member the committee is measured at: the lowest-indexed honest
    member unless {!set_observer} moved it.  The {!tally} counts only this
    replica, and embeddings log commits and latencies only for its
    [execute] upcalls, so committee-wide throughput is not
    multiple-counted. *)

val known_backlog : committee -> member:int -> int
(** Requests known to a member but not yet executed (for tests). *)

val last_stable : committee -> member:int -> int
(** The member's latest stable checkpoint (garbage-collection horizon). *)

val exec_root : committee -> member:int -> int
(** The member's execution-chain root: a running digest folded over every
    executed (seq, batch digest).  Honest replicas at equal {!last_executed}
    hold equal roots, so this is the value checkpoints certify. *)

val checkpoint_cert : committee -> member:int -> (int * int * int list) option
(** The highest checkpoint certificate the member holds, as
    [(seq, root, voters)] — the quorum of members whose matching
    [Checkpoint] votes were collected.  [None] before the first
    certificate forms (or right after {!reset_member}). *)

val set_snapshot_hook :
  committee -> (member:int -> seq:int -> digest:int -> k:(bool -> unit) -> unit) -> unit
(** Install the embedding's snapshot transfer: called when catch-up needs a
    snapshot certified at [seq] because the missed slots were pruned even
    from the serving peers' replay rings.  The hook must eventually call
    [k true] once a snapshot matching the certificate is transferred and
    verified, or [k false] to reject (verification failure triggers a
    retry).  Default: immediately [k true] (state-free embeddings). *)

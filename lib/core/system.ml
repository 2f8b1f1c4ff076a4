open Repro_util
open Repro_crypto
open Repro_sim
open Repro_consensus
open Repro_ledger
open Repro_shard
module Probe = Repro_obs.Probe
module Ev = Repro_obs.Event

type coordination_mode = With_reference | Client_driven | Flattened

type concurrency_control =
  | Two_phase_locking  (** the paper's 2PL: conflicting prepares vote NotOK *)
  | Wait_die
      (** Section 6.4's optimization opportunity: an older transaction
          whose prepare hits a lock parks and retries when the lock frees
          (younger ones still die, so no deadlocks) *)

type config = {
  shards : int;
  committee_size : int;
  variant : Config.variant;
  topology : Topology.t;
  mode : coordination_mode;
  concurrency : concurrency_control;
  seed : int64;
  fast_lane : bool;
      (* DESIGN §18: route all-mergeable transactions down the lock-free
         delta lane instead of 2PC+2PL *)
}

let default_config ~shards ~committee_size =
  {
    shards;
    committee_size;
    variant = Config.ahl_plus;
    topology = Topology.lan ();
    mode = With_reference;
    concurrency = Two_phase_locking;
    seed = 1L;
    fast_lane = false;
  }

type tx_outcome = Committed | Aborted

(* Per-destination accumulator of coordinator-bound steps: one consensus
   slot then carries the whole batch instead of one request per leg. *)
type batcher = {
  mutable steps : Coordination.op list; (* newest first *)
  mutable count : int;
  mutable bclient : int; (* client of the carrier request *)
  mutable armed : bool; (* a window-flush timer is pending *)
}

type committee_ctx = {
  index : int; (* 0..shards-1, or [shards] for R *)
  base : int; (* global node id of member 0 *)
  pbft : Pbft.committee;
  nodes : Pbft.msg Node.t array;
  state : State.t;
  chain : Block.Chain.chain;
  coordsm : Reference.t option;
      (* the Fig.-6 2PC chaincode: hosted by R in [With_reference] mode,
         by every shard committee in [Flattened] mode (the coordinator
         shard of a transaction runs its machine), by nobody when the
         client coordinates *)
  applied : Idset.t;
      (* [applied_key txid phase] of every step already executed — client
         retries after request loss make re-delivery possible, execution
         must be idempotent.  Txids are dense from 0, so a bitmap. *)
  parked : (Tx.op list * Types.request * float) Int_table.t;
      (* wait-die: prepares waiting for a lock (with park time),
         retried on releases *)
  prepared : bool Int_table.t;
      (* the shard observer's record of each prepare's quorum outcome —
         the evidence R's fallback sweep reads instead of guessing from
         lock tuples (a prepare still in flight has no entry) *)
  mlane : Merge.lane;
      (* the shard's lock-free delta lane: fast-lane legs append here and
         the observer folds it into [state] at each block boundary *)
  mutable state_commit : Sha256.digest;
      (* rolling state commitment chained per block; recomputing the full
         Merkle root over the whole state each block would be O(state) *)
  batcher : batcher; (* coordinator-bound steps waiting to ride to this committee *)
  mutable corrupt_next : bool;
      (* one-shot: the next snapshot served for catch-up is tampered
         (models a Byzantine serving member; the joiner's verification
         must reject it) *)
}

(* What a transaction sends each participant shard, keyed by shard in
   ascending order.  Computed once at submit: every leg, retry and
   fallback sweep reads it instead of re-hashing the keys. *)
type legs =
  | Ops of (int * Tx.op list) list  (* prepare/decision legs: [Tx.placement] *)
  | Deltas of (int * (string * Tx.delta) list) list  (* fast-lane delta legs *)

(* Book-keeping for one in-flight cross-shard transaction. *)
type tx_record = {
  tx : Tx.t;
  legs : legs;
  participant_shards : int list; (* the shards of [legs] *)
  coordinator : int option;
      (* the committee hosting the transaction's 2PC machine — R, or the
         flattened participant [txid mod |participants|] — or [None] when
         the client collects the votes itself *)
  mutable votes : (int * bool) list; (* shard votes a coordinating client holds *)
  mutable decided : bool;
  mutable legs_left : int;
  mutable legs_done : int list; (* shards whose decision leg landed *)
  mutable outcome : tx_outcome;
  mutable relaying : bool; (* false once a malicious client went silent *)
  mutable prepare_started : float; (* -1 until the first prepare dispatch *)
  mutable decided_at : float; (* -1 until the decision is reached *)
  on_done : tx_outcome -> unit;
}

type decision_event = { at : float; txid : int; shard : int; commit : bool }

type t = {
  cfg : config;
  cpu_scale : float; (* the topology's, read once *)
  engine : Engine.t;
  network : Pbft.msg Network.t;
  registry : Coordination.registry;
  mutable committees : committee_ctx array; (* shards, then optionally R last *)
  commits : Commits.t; (* transaction-level *)
  inflight : tx_record Int_table.t;
  mutable next_req : int;
  rng : Rng.t;
  mutable leg_filter : (dst:int -> Coordination.op -> Network.verdict) option;
      (* adversarial hook over coordination legs (see set_leg_filter) *)
  mutable decisions : decision_event list; (* reverse chronological *)
  mutable probe : Probe.t;
  mutable next_batch : int;
  mutable batches_inflight : int; (* sent, not yet executed *)
  live_batches : (int, unit) Hashtbl.t;
}

let ref_index t = t.cfg.shards

let has_reference t = t.cfg.mode = With_reference

let engine t = t.engine

let shards t = t.cfg.shards

let committee_size t = t.cfg.committee_size

let shard_state t s = t.committees.(s).state

let shard_chain t s = t.committees.(s).chain

let reference_machine t = if has_reference t then t.committees.(ref_index t).coordsm else None

let coordination_machines t =
  Array.to_list t.committees |> List.filter_map (fun ctx -> ctx.coordsm)

(* ------------------------------------------------------------------ *)
(* Request plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_req t ~client ~op_tag =
  let req_id = t.next_req in
  t.next_req <- req_id + 1;
  Types.request ~req_id ~client ~submitted:(Engine.now t.engine) ~op_tag ()

(* Hand one coordination step (or a batch carrier) to a committee's entry
   replica, unconditionally — leg filtering happens in the callers. *)
let deliver_op t ~committee ~client op =
  let ctx = t.committees.(committee) in
  let op_tag = Coordination.register t.registry op in
  let req = fresh_req t ~client ~op_tag in
  (* Clients notice an unresponsive peer (dead TCP connection) and try the
     next one, so entry requests go to a live member. *)
  let n = Array.length ctx.nodes in
  let member =
    let start = req.Types.req_id mod n in
    let rec probe i =
      if i >= n then start
      else
        let m = (start + i) mod n in
        if Node.is_crashed ctx.nodes.(m) then probe (i + 1) else m
    in
    probe 0
  in
  (match op with
  | Coordination.Batch { steps; _ } ->
      (* The entry replica's enclave verifies every inner step's client
         signature and its peers accept the attested carrier, so the
         per-step verification cost is paid once — at a rotating member,
         off the replicated pre-prepare path (the amortization DESIGN §15
         justifies; without it each step would cost every replica
         [client_sig_verify]). *)
      Node.charge ctx.nodes.(member)
        (float_of_int (List.length steps)
        *. Config.client_sig_verify *. t.cpu_scale)
  | _ -> ());
  let dst = ctx.base + member in
  let msg = Pbft.request req in
  let region = Topology.region_of_node t.cfg.topology dst in
  Network.send_external t.network ~src_region:region ~dst ~channel:Pbft.request_channel
    ~bytes:(Types.request_bytes + Coordination.op_bytes op)
    msg

(* Submit a coordination step as a consensus request to a committee, via a
   deterministic entry replica (clients talk to one peer, AHL+ forwards).
   An installed leg filter can drop, delay, or duplicate the whole step —
   the adversarial knob the cross-shard checker drives. *)
let send_to_committee t ~committee ~client op =
  let deliver () = deliver_op t ~committee ~client op in
  match t.leg_filter with
  | None -> deliver ()
  | Some filter -> (
      match filter ~dst:committee op with
      | Network.Deliver -> deliver ()
      | Network.Drop -> ()
      | Network.Delay d -> Engine.schedule t.engine ~delay:d deliver
      | Network.Duplicate { copies; spacing } ->
          deliver ();
          for k = 1 to copies - 1 do
            Engine.schedule t.engine ~delay:(float_of_int k *. spacing) deliver
          done)

(* ------------------------------------------------------------------ *)
(* The step batcher (DESIGN §15)                                       *)
(* ------------------------------------------------------------------ *)

(* A batch the executing committee never sees (entry replica crashed,
   consensus stalled past the horizon) would pin its registry entries
   forever; release them after a generous grace period instead. *)
let batch_gc_period = 120.0

(* A pending step waits at most [batch_window] seconds for co-travellers;
   a destination's batch flushes at once when it reaches [batch_max_steps]. *)
let batch_window = 0.02

let batch_max_steps = 128

(* How long a coordinator waits for a silent client's relay before its own
   nodes dispatch the prepares, and the period of the fallback sweep that
   follows. *)
let client_fallback_timeout = 5.0

let send_batch t ~committee ~client steps =
  match steps with
  | [] -> ()
  | steps ->
      let id = t.next_batch in
      t.next_batch <- id + 1;
      Probe.observe t.probe "2pc.batch.size" (float_of_int (List.length steps));
      Hashtbl.replace t.live_batches id ();
      t.batches_inflight <- t.batches_inflight + 1;
      Probe.observe t.probe "2pc.batch.pipeline_depth" (float_of_int t.batches_inflight);
      deliver_op t ~committee ~client (Coordination.Batch { batch = id; steps });
      Engine.schedule t.engine ~delay:batch_gc_period (fun () ->
          if Hashtbl.mem t.live_batches id then begin
            Hashtbl.remove t.live_batches id;
            t.batches_inflight <- t.batches_inflight - 1;
            Coordination.release t.registry ~txid:(Coordination.batch_txid id)
          end)

(* Seal the pending steps into canonical order and ship them.  The leg
   filter is applied per *constituent* step — an adversary that drops Vote
   legs with probability p must see the same per-leg semantics whether the
   legs travel alone or batched — and the surviving steps are regrouped
   into sub-batches (delivered now / after each distinct delay / duplicated
   as singletons), each with its own carrier id. *)
let flush_batcher t ~committee b =
  match b.steps with
  | [] -> ()
  | rev_steps ->
      b.steps <- [];
      b.count <- 0;
      let client = b.bclient in
      (* [List.rev] restores enqueue order so the stable sort resolves
         batch_order ties (structurally identical duplicates) the same way
         for any flush size. *)
      let steps = List.sort Coordination.batch_order (List.rev rev_steps) in
      (match t.leg_filter with
      | None -> send_batch t ~committee ~client steps
      | Some filter ->
          let now_ = ref [] and delayed = ref [] in
          List.iter
            (fun s ->
              match filter ~dst:committee s with
              | Network.Deliver -> now_ := s :: !now_
              | Network.Drop -> Probe.incr t.probe "2pc.batch.step_dropped"
              | Network.Delay d -> delayed := (d, s) :: !delayed
              | Network.Duplicate { copies; spacing } ->
                  now_ := s :: !now_;
                  for k = 1 to copies - 1 do
                    Engine.schedule t.engine ~delay:(float_of_int k *. spacing) (fun () ->
                        send_batch t ~committee ~client [ s ])
                  done)
            steps;
          send_batch t ~committee ~client (List.rev !now_);
          let delayed =
            List.stable_sort (fun (d1, _) (d2, _) -> Float.compare d1 d2) (List.rev !delayed)
          in
          let rec groups = function
            | [] -> []
            | (d, s) :: rest ->
                let same, others = List.partition (fun (d2, _) -> Float.equal d d2) rest in
                (d, s :: List.map snd same) :: groups others
          in
          List.iter
            (fun (d, ss) ->
              Engine.schedule t.engine ~delay:d (fun () -> send_batch t ~committee ~client ss))
            (groups delayed))

(* Coordinator-bound steps (Begin/Vote) always ride batches; every other
   step keeps the one-request-per-step path. *)
let enqueue_step t ~committee ~client op =
  let b = t.committees.(committee).batcher in
  if b.count = 0 then b.bclient <- client;
  b.steps <- op :: b.steps;
  b.count <- b.count + 1;
  if b.count >= batch_max_steps then begin
    Probe.incr t.probe "2pc.batch.flush.full";
    flush_batcher t ~committee b
  end
  else if not b.armed then begin
    b.armed <- true;
    Engine.schedule t.engine ~delay:batch_window (fun () ->
        b.armed <- false;
        match b.steps with
        | [] -> ()
        | _ :: _ ->
            Probe.incr t.probe "2pc.batch.flush.window";
            flush_batcher t ~committee b)
  end

(* ------------------------------------------------------------------ *)
(* Coordination driver (the client relay + coordinator fallback)       *)
(* ------------------------------------------------------------------ *)

(* Retire a finished transaction: drop its record and registry entries,
   count the outcome, and hand it to the submitter. *)
let complete t rec_ outcome =
  let txid = rec_.tx.Tx.txid in
  Int_table.remove t.inflight txid;
  Coordination.release t.registry ~txid;
  (match outcome with
  | Committed ->
      Commits.commit t.commits ~count:1;
      Commits.commit_latency t.commits ~submitted:rec_.tx.Tx.submitted
  | Aborted -> Commits.abort t.commits ~count:1);
  rec_.on_done outcome

let finish_leg t txid shard =
  match Int_table.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ when List.exists (Int.equal shard) rec_.legs_done -> ()
  | Some rec_ ->
      rec_.legs_done <- shard :: rec_.legs_done;
      rec_.legs_left <- rec_.legs_left - 1;
      if rec_.decided_at >= 0.0 then
        Probe.observe t.probe "2pc.decision_leg_s" (Engine.now t.engine -. rec_.decided_at);
      if rec_.legs_left <= 0 then begin
        Probe.incr t.probe (if rec_.outcome = Committed then "2pc.committed" else "2pc.aborted");
        Probe.observe t.probe "2pc.tx_total_s" (Engine.now t.engine -. rec_.tx.Tx.submitted);
        complete t rec_ rec_.outcome
      end

(* The decision leg [rec_] sends [shard]: a lane record's delta append
   (always a commit), Commit_tx or Abort_tx otherwise. *)
let decision_leg rec_ shard =
  let txid = rec_.tx.Tx.txid in
  match rec_.legs with
  | Deltas lane -> Coordination.Merge_tx { txid; deltas = Tx.on_shard lane shard }
  | Ops placement ->
      let ops = Tx.on_shard placement shard in
      if rec_.outcome = Committed then Coordination.Commit_tx { txid; ops }
      else Coordination.Abort_tx { txid; ops }

(* Send the decision to every participant whose leg has not landed; the
   shard's applied table makes a re-sent leg apply at most once. *)
let send_decision t rec_ =
  List.iter
    (fun shard ->
      if not (List.exists (Int.equal shard) rec_.legs_done) then
        send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client (decision_leg rec_ shard))
    rec_.participant_shards

(* Lane records are decided at creation, so only [Ops] records prepare. *)
let send_prepare t rec_ shard =
  match rec_.legs with
  | Ops placement ->
      send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client
        (Coordination.Prepare_tx { txid = rec_.tx.Tx.txid; ops = Tx.on_shard placement shard })
  | Deltas _ -> ()

let dispatch_decision t txid ok =
  match Int_table.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ ->
      if not rec_.decided then begin
        rec_.decided <- true;
        rec_.outcome <- (if ok then Committed else Aborted);
        rec_.decided_at <- Engine.now t.engine;
        if Probe.enabled t.probe then begin
          Probe.incr t.probe
            (if ok then "2pc.decided.commit" else "2pc.decided.abort");
          Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc" ~node:"coord"
            ~args:[ ("txid", Ev.I txid); ("commit", Ev.S (string_of_bool ok)) ]
            "decision"
        end;
        rec_.legs_left <- List.length rec_.participant_shards;
        send_decision t rec_
      end

let dispatch_prepares t rec_ =
  if rec_.prepare_started < 0.0 then begin
    rec_.prepare_started <- Engine.now t.engine;
    Probe.incr t.probe "2pc.prepare_rounds";
    Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc" ~node:"coord"
      "prepare_dispatch"
  end;
  List.iter (send_prepare t rec_) rec_.participant_shards

(* Open a cross-shard transaction's 2PC.  With a coordinator committee the
   client sends BeginTx and, pipelining (DESIGN §15), its prepares at once
   rather than after BeginTx's consensus: the machine buffers any vote that
   outruns its Begin.  A silent client sends BeginTx only and leaves the
   prepares to the coordinator's fallback.  A client that coordinates
   itself just prepares. *)
let start_2pc t rec_ =
  match rec_.coordinator with
  | Some committee ->
      enqueue_step t ~committee ~client:rec_.tx.Tx.client
        (Coordination.Begin_tx { txid = rec_.tx.Tx.txid; participants = rec_.participant_shards });
      if rec_.relaying then dispatch_prepares t rec_
  | None -> dispatch_prepares t rec_

(* Client-driven vote collection (OmniLedger mode).  A malicious client
   drops the votes: its locks stay and nobody decides. *)
let on_client_vote t rec_ shard ok =
  if rec_.relaying then begin
    rec_.votes <- (shard, ok) :: List.remove_assoc shard rec_.votes;
    let any_nok = List.exists (fun (_, ok) -> not ok) rec_.votes in
    if any_nok || List.length rec_.votes = List.length rec_.participant_shards then begin
      rec_.votes <- [];
      dispatch_decision t rec_.tx.Tx.txid (not any_nok)
    end
  end

(* ------------------------------------------------------------------ *)
(* Execution at committee observers                                    *)
(* ------------------------------------------------------------------ *)

(* Block-boundary merge fold (DESIGN §18): materialise the delta lane into
   canonical state before sealing the block.  The fold order is canonical
   (key, txid, seq) — a pure function of the delta set — so every replica
   folding this block chains the same root, and the lane's effect on the
   state commitment is independent of leg arrival order. *)
let fold_lane t ctx =
  let depth = Merge.depth ctx.mlane in
  if depth > 0 then begin
    let count, digest = Merge.fold_into ctx.mlane ctx.state in
    if Probe.enabled t.probe then begin
      Probe.incr t.probe "merge.folds";
      Probe.observe t.probe "merge.fold.depth" (float_of_int depth);
      let dur =
        float_of_int count *. Cost_model.default.Cost_model.tx_execute *. t.cpu_scale
      in
      Probe.span t.probe ~time:(Engine.now t.engine) ~dur ~cat:"merge"
        ~node:("s" ^ string_of_int ctx.index)
        ~args:[ ("entries", Ev.I count) ]
        "merge_fold"
    end;
    ctx.state_commit <-
      Sha256.digest_concat
        [ Sha256.to_raw ctx.state_commit; "merge-fold"; Sha256.to_raw digest ]
  end

let record_block t ctx batch =
  fold_lane t ctx;
  let txs = List.map (fun (r : Types.request) -> "req-" ^ string_of_int r.Types.req_id) batch in
  ctx.state_commit <-
    Sha256.digest_concat (Sha256.to_raw ctx.state_commit :: txs);
  ignore
    (Block.Chain.append ctx.chain ~txs ~state_root:ctx.state_commit
       ~timestamp:(Engine.now t.engine))

(* A shard's quorum answer for a prepare.  The observer keeps it as
   evidence until the transaction's decision lands (the fallback sweep
   reads it rather than inferring a vote from the lock table), and the vote
   goes to whoever coordinates.  A silent client relays nothing: its
   coordinator's sweep reads the evidence instead. *)
let vote t ctx (req : Types.request) ~txid ~ok =
  Int_table.replace ctx.prepared txid ok;
  match Int_table.find_opt t.inflight txid with
  | Some { coordinator = Some committee; relaying = true; _ } ->
      enqueue_step t ~committee ~client:req.Types.client
        (Coordination.Vote { txid; shard = ctx.index; ok })
  | Some ({ coordinator = None; _ } as rec_) -> on_client_vote t rec_ ctx.index ok
  | Some { coordinator = Some _; relaying = false; _ } | None -> ()

(* Wait-die retry: lock releases wake parked prepares in txid order. *)
let retry_parked t ctx =
  Int_table.iter_sorted
    (fun txid (ops, req, parked_at) ->
      match Executor.try_prepare ctx.state ~txid ops with
      | Ok () ->
          Int_table.remove ctx.parked txid;
          Probe.incr t.probe "2pc.waitdie.retry_ok";
          Probe.observe t.probe "2pc.waitdie.wait_s" (Engine.now t.engine -. parked_at);
          vote t ctx req ~txid ~ok:true
      | Error (Executor.Insufficient _) ->
          Int_table.remove ctx.parked txid;
          Probe.incr t.probe "2pc.vote_nok.insufficient";
          vote t ctx req ~txid ~ok:false
      | Error (Executor.Lock_conflict _) -> ())
    ctx.parked

(* A step's key in [ctx.applied]: phase 0 is a single-shard
   transaction, 1 a commit, 2 an abort, 3 a delta leg. *)
let applied_key txid phase = (4 * txid) + phase

let is_applied ctx txid phase = Idset.mem ctx.applied (applied_key txid phase)

let mark_applied ctx txid phase = Idset.add ctx.applied (applied_key txid phase)

let execute_on_shard t ctx (req : Types.request) =
  match Coordination.lookup t.registry req.Types.op_tag with
  | None -> ()
  | Some op -> (
      match op with
      (* Client retries can re-deliver any step; state-changing ones are
         applied at most once per (txid, step). *)
      | Coordination.Single { txid; _ } when is_applied ctx txid 0 -> ()
      | Coordination.Commit_tx { txid; _ } when is_applied ctx txid 1 -> ()
      | Coordination.Abort_tx { txid; _ } when is_applied ctx txid 2 -> ()
      | Coordination.Prepare_tx { txid; _ }
        when is_applied ctx txid 1 || is_applied ctx txid 2 ->
          (* A retried prepare arriving after the decision must not
             re-acquire locks the commit/abort already released. *)
          ()
      | Coordination.Merge_tx { txid; _ } when is_applied ctx txid 3 ->
          () (* duplicated/retried delta legs append at most once *)
      | Coordination.Merge_tx { txid; deltas } ->
          mark_applied ctx txid 3;
          List.iter
            (fun (key, delta) -> Merge.append ctx.mlane ctx.state ~txid ~key delta)
            deltas;
          if Probe.enabled t.probe then begin
            Probe.add t.probe "merge.deltas" (List.length deltas);
            Probe.observe t.probe "merge.lane.depth" (float_of_int (Merge.depth ctx.mlane))
          end;
          t.decisions <-
            { at = Engine.now t.engine; txid; shard = ctx.index; commit = true } :: t.decisions;
          finish_leg t txid ctx.index
      | Coordination.Single { txid; ops } -> (
          mark_applied ctx txid 0;
          let outcome =
            match Executor.execute_single ctx.state ~txid ops with
            | Ok () -> Committed
            | Error _ -> Aborted
          in
          match Int_table.find_opt t.inflight txid with
          | Some rec_ -> complete t rec_ outcome
          | None -> ())
      | Coordination.Prepare_tx { txid; ops } -> (
          (* The client reads the vote off the shard's chain and relays. *)
          match Executor.try_prepare ctx.state ~txid ops with
          | Ok () ->
              vote t ctx req ~txid ~ok:true
          | Error (Executor.Insufficient _) ->
              Probe.incr t.probe "2pc.vote_nok.insufficient";
              vote t ctx req ~txid ~ok:false
          | Error (Executor.Lock_conflict { holder; _ }) -> (
              if Probe.enabled t.probe then
                Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc"
                  ~node:("s" ^ string_of_int ctx.index)
                  ~args:[ ("txid", Ev.I txid); ("holder", Ev.I holder) ]
                  "lock_conflict";
              match t.cfg.concurrency with
              | Two_phase_locking ->
                  Probe.incr t.probe "2pc.vote_nok.lock_conflict";
                  vote t ctx req ~txid ~ok:false
              | Wait_die ->
                  if txid < holder && not (Int_table.mem ctx.parked txid) then begin
                    (* Older waits; a park timeout bounds the wait.  No
                       evidence is recorded while parked: the prepare is
                       still undecided. *)
                    Probe.incr t.probe "2pc.waitdie.parked";
                    Int_table.replace ctx.parked txid (ops, req, Engine.now t.engine);
                    Engine.schedule t.engine ~delay:4.0 (fun () ->
                        match Int_table.find_opt ctx.parked txid with
                        | Some (_, req, parked_at) ->
                            Int_table.remove ctx.parked txid;
                            Probe.incr t.probe "2pc.waitdie.park_timeout";
                            Probe.observe t.probe "2pc.waitdie.wait_s"
                              (Engine.now t.engine -. parked_at);
                            vote t ctx req ~txid ~ok:false
                        | None -> ())
                  end
                  else begin
                    Probe.incr t.probe "2pc.waitdie.died";
                    vote t ctx req ~txid ~ok:false
                  end))
      | Coordination.Commit_tx { txid; ops } ->
          mark_applied ctx txid 1;
          Executor.commit ctx.state ~txid ops;
          Int_table.remove ctx.parked txid;
          Int_table.remove ctx.prepared txid;
          t.decisions <-
            { at = Engine.now t.engine; txid; shard = ctx.index; commit = true } :: t.decisions;
          finish_leg t txid ctx.index;
          if t.cfg.concurrency = Wait_die then retry_parked t ctx
      | Coordination.Abort_tx { txid; ops } ->
          mark_applied ctx txid 2;
          Executor.abort ctx.state ~txid ops;
          Int_table.remove ctx.parked txid;
          Int_table.remove ctx.prepared txid;
          t.decisions <-
            { at = Engine.now t.engine; txid; shard = ctx.index; commit = false } :: t.decisions;
          finish_leg t txid ctx.index;
          if t.cfg.concurrency = Wait_die then retry_parked t ctx
      | Coordination.Begin_tx _ | Coordination.Vote _ | Coordination.Batch _ ->
          () (* coordinator-only ops *))

let observe_vote_leg t txid =
  if Probe.enabled t.probe then
    match Int_table.find_opt t.inflight txid with
    | Some rec_ when rec_.prepare_started >= 0.0 && not rec_.decided ->
        Probe.observe t.probe "2pc.vote_leg_s" (Engine.now t.engine -. rec_.prepare_started)
    | Some _ | None -> ()

(* The transaction's state in its coordinator's 2PC machine, if it has one. *)
let coord_state t rec_ =
  match Option.bind rec_.coordinator (fun c -> t.committees.(c).coordsm) with
  | None -> None
  | Some sm -> Reference.state_of sm ~txid:rec_.tx.Tx.txid

let rec react_begin t txid decision =
  match decision with
  | Reference.Now_started -> (
      (* A relaying client already dispatched prepares alongside BeginTx
         (pipelining); only a silent one leaves the work to the coordinator. *)
      match Int_table.find_opt t.inflight txid with
      | Some rec_ when not rec_.relaying ->
          (* Fallback: the coordinator's nodes dispatch PrepareTx
             themselves if the client relay stays silent, then sweep for
             the shards' prepare evidence until the tx is done. *)
          Engine.schedule t.engine ~delay:client_fallback_timeout (fun () ->
              (match coord_state t rec_ with
              | Some (Reference.Preparing _) | Some Reference.Started ->
                  dispatch_prepares t rec_
              | Some Reference.Committed | Some Reference.Aborted | None -> ());
              Engine.schedule t.engine ~delay:client_fallback_timeout (fun () ->
                  fallback_collect t txid))
      | Some _ | None -> ())
  | Reference.Now_committed ->
      (* Buffered early votes completed the machine inside BeginTx. *)
      dispatch_decision t txid true
  | Reference.Now_aborted -> dispatch_decision t txid false
  | Reference.No_change -> ()

and react_vote t txid decision =
  match decision with
  | Reference.Now_committed -> dispatch_decision t txid true
  | Reference.Now_aborted -> dispatch_decision t txid false
  | Reference.No_change | Reference.Now_started -> ()

(* Run one [Batch] carrier's coordinator chaincode steps at the hosting
   committee's observer: [Reference.step_batch] applies the whole consensus
   slot's worth of legs, and each step's decision is reacted to in order. *)
and execute_coord t ctx ~batch steps =
  match ctx.coordsm with
  | None -> ()
  | Some refsm ->
      Probe.observe t.probe "2pc.slot_steps" (float_of_int (List.length steps));
      let events =
        List.filter_map
          (fun s ->
            match s with
            | Coordination.Begin_tx { txid; participants } ->
                Some (s, (txid, Reference.Begin { participants }))
            | Coordination.Vote { txid; shard; ok } ->
                Some
                  ( s,
                    ( txid,
                      if ok then Reference.Prepare_ok { shard }
                      else Reference.Prepare_not_ok { shard } ) )
            | Coordination.Single _ | Coordination.Prepare_tx _ | Coordination.Commit_tx _
            | Coordination.Abort_tx _ | Coordination.Merge_tx _ | Coordination.Batch _ ->
                None)
          steps
      in
      List.iter
        (fun (s, (txid, _)) ->
          match s with Coordination.Vote _ -> observe_vote_leg t txid | _ -> ())
        events;
      let decisions = Reference.step_batch refsm (List.map snd events) in
      List.iter2
        (fun (s, _) (txid, d) ->
          match s with
          | Coordination.Begin_tx _ -> react_begin t txid d
          | _ -> react_vote t txid d)
        events decisions;
      if Hashtbl.mem t.live_batches batch then begin
        Hashtbl.remove t.live_batches batch;
        t.batches_inflight <- t.batches_inflight - 1
      end;
      Coordination.release t.registry ~txid:(Coordination.batch_txid batch)

(* When the client never relays votes, the coordinator's members sweep the
   participants: each shard observer keeps the quorum outcome of every
   prepare it ran ([ctx.prepared]), and the sweep relays exactly that
   evidence.  A shard with no evidence yet (prepare lost or still in
   flight) gets its prepare re-dispatched instead of a guessed vote —
   inferring NotOK from the lock table here is what used to abort
   transactions that would have committed, and a single-shot sweep left
   locks stuck when a leg was lost.  The sweep re-arms every
   [client_fallback_timeout] until the transaction is done, re-driving
   undelivered decision legs too (the client will not). *)
and fallback_collect t txid =
  match Int_table.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ ->
      Probe.incr t.probe "2pc.fallback_sweeps";
      Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc" ~node:"R"
        ~args:[ ("txid", Ev.I txid) ]
        "fallback_sweep";
      (if rec_.decided then send_decision t rec_
       else
         Option.iter
           (fun committee ->
             List.iter
               (fun shard ->
                 match Int_table.find_opt t.committees.(shard).prepared txid with
                 | Some ok ->
                     enqueue_step t ~committee ~client:rec_.tx.Tx.client
                       (Coordination.Vote { txid; shard; ok })
                 | None -> send_prepare t rec_ shard)
               rec_.participant_shards)
           rec_.coordinator);
      Engine.schedule t.engine ~delay:client_fallback_timeout (fun () ->
          fallback_collect t txid)

(* Seconds to ship a state package and re-verify it: the transfer over
   the topology plus recomputing its Merkle root at Table-2 SHA throughput.
   Checkpoint catch-up and epoch fetches both pay it. *)
let transfer_cost t pkg =
  let transfer = State_transfer.transfer_time t.cfg.topology pkg in
  let verify =
    float_of_int (State_transfer.size_bytes pkg / 64)
    *. Cost_model.default.Cost_model.sha256 *. t.cpu_scale
  in
  if Probe.enabled t.probe then begin
    Probe.observe t.probe "ckpt.transfer_bytes" (float_of_int (State_transfer.size_bytes pkg));
    Probe.observe t.probe "ckpt.transfer_s" (transfer +. verify)
  end;
  transfer +. verify

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create cfg =
  let engine = Engine.create ~seed:cfg.seed in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let network = Network.create engine ~topology:cfg.topology in
  let registry = Coordination.create_registry () in
  let commits = Commits.create engine in
  let committee_count = cfg.shards + (if cfg.mode = With_reference then 1 else 0) in
  let t =
    {
      cfg;
      cpu_scale = Topology.cpu_scale cfg.topology;
      engine;
      network;
      registry;
      committees = [||];
      commits;
      inflight = Int_table.create 1024;
      next_req = 0;
      rng = Rng.split_named (Engine.rng engine) "system";
      leg_filter = None;
      decisions = [];
      probe = Probe.none;
      next_batch = 0;
      batches_inflight = 0;
      live_batches = Hashtbl.create 64;
    }
  in
  let make_committee index =
    let n = cfg.committee_size in
    let base = index * n in
    let pbft_cfg = Config.default cfg.variant ~n ~topology:cfg.topology in
    let state = State.create () in
    let chain = Block.Chain.create ~state_root:(State.root state) in
    (* Blocks execute only once the run starts, after [t.committees] is
       filled in. *)
    let execute ~member ~seq:_ batch =
      let ctx = t.committees.(index) in
      if member = Pbft.observer ctx.pbft && batch <> [] then begin
        List.iter
          (fun req ->
            match Coordination.lookup t.registry req.Types.op_tag with
            | Some (Coordination.Batch { batch; steps }) -> execute_coord t ctx ~batch steps
            | Some _ | None -> execute_on_shard t ctx req)
          batch;
        record_block t ctx batch
      end
    in
    let pbft, nodes =
      Pbft.spawn network ~base ~keystore ~costs:Cost_model.default ~config:pbft_cfg
        ~adversary:Pbft.honest ~execute
    in
    let coordsm =
      match cfg.mode with
      | With_reference -> if index = cfg.shards then Some (Reference.create ()) else None
      | Flattened -> Some (Reference.create ())
      | Client_driven -> None
    in
    let ctx =
      {
        index;
        base;
        pbft;
        nodes;
        state;
        chain;
        coordsm;
        applied = Idset.create ();
        parked = Int_table.create 64;
        prepared = Int_table.create 64;
        mlane = Merge.lane ();
        state_commit = State.root state;
        batcher = { steps = []; count = 0; bclient = 0; armed = false };
        corrupt_next = false;
      }
    in
    (* Section 5.3 state transfer for checkpoint catch-up: a member whose
       missed slots were pruned from its peers' replay rings pulls a
       snapshot of the shard state, pays transfer + Merkle re-verification
       time, and rejects packages that fail verification.  The observer is
       the one member this can never apply to — its materialized state is
       the committee's only copy, so it must replay, never install. *)
    Pbft.set_snapshot_hook pbft (fun ~member ~seq:_ ~digest:_ ~k ->
        if member = Pbft.observer pbft then k false
        else begin
          let pkg = State_transfer.pack ctx.state in
          let expected = State_transfer.claimed_root pkg in
          let pkg =
            if ctx.corrupt_next then begin
              ctx.corrupt_next <- false;
              State_transfer.tamper pkg ~key:"acct_0" ~value:"doctored"
            end
            else pkg
          in
          Engine.schedule t.engine ~delay:(transfer_cost t pkg) (fun () ->
              match State_transfer.verify_and_restore pkg ~expected_root:expected with
              | Ok _ -> k true
              | Error _ -> k false)
        end);
    Pbft.start pbft;
    ctx
  in
  t.committees <- Array.init committee_count make_committee;
  t

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

(* An honest client retries until its transaction finishes: requests can
   be lost at crashed or transitioning replicas, and every coordination
   step is idempotent, so re-driving from the top is safe. *)
let client_retry_period = 25.0

let rec arm_retry t txid =
  Engine.schedule t.engine ~delay:client_retry_period (fun () ->
      match Int_table.find_opt t.inflight txid with
      | None -> ()
      | Some rec_ when not rec_.relaying -> ignore rec_ (* malicious: stays silent *)
      | Some rec_ ->
          (match rec_.participant_shards with
          | [ shard ] when not rec_.decided ->
              send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client
                (Coordination.Single { txid; ops = rec_.tx.Tx.ops })
          | _ when rec_.decided -> send_decision t rec_
          | _ -> start_2pc t rec_);
          arm_retry t txid)

(* A transaction is admitted to the fast lane iff every op classifies as a
   commutative delta AND no touched key is under an in-flight exclusive
   lock — deltas folded around a 2PC transaction's lock window would
   otherwise interleave with its validated read (the downgrade guard of
   DESIGN §18). *)
let merge_lock_conflict t lane =
  List.exists
    (fun (shard, deltas) ->
      let locks = Locks.create t.committees.(shard).state in
      List.exists (fun (key, _) -> Option.is_some (Locks.holder locks key)) deltas)
    lane

let new_record t ~on_done ~relaying tx legs =
  let touched, lane =
    match legs with
    | Ops placement -> (List.map fst placement, false)
    | Deltas deltas -> (List.map fst deltas, true)
  in
  let coordinator =
    match t.cfg.mode with
    | With_reference -> Some (ref_index t)
    | Flattened ->
        (* SharPer-style: an involved shard coordinates; spread the role over
           participants by txid so no shard becomes the de-facto R. *)
        Some (List.nth touched (tx.Tx.txid mod List.length touched))
    | Client_driven -> None
  in
  {
    tx;
    legs;
    participant_shards = touched;
    coordinator;
    votes = [];
    (* The lane has no abort path: the transaction is decided the moment
       it is classified; only its delta legs remain. *)
    decided = lane;
    legs_left = List.length touched;
    legs_done = [];
    outcome = (if lane then Committed else Aborted);
    relaying;
    prepare_started = -1.0;
    decided_at = (if lane then Engine.now t.engine else -1.0);
    on_done;
  }

let submit_merge t ~on_done ~malicious_client tx lane =
  let txid = tx.Tx.txid in
  let rec_ = new_record t ~on_done ~relaying:(not malicious_client) tx (Deltas lane) in
  Int_table.replace t.inflight txid rec_;
  Probe.incr t.probe "merge.lane_hits";
  send_decision t rec_;
  arm_retry t txid

let submit_locked t ~on_done ~malicious_client tx =
  let txid = tx.Tx.txid in
  match Tx.placement ~shards:t.cfg.shards tx with
  | [] -> on_done Aborted
  | [ (shard, _) ] as placement ->
      Int_table.replace t.inflight txid
        (new_record t ~on_done ~relaying:true tx (Ops placement));
      send_to_committee t ~committee:shard ~client:tx.Tx.client
        (Coordination.Single { txid; ops = tx.Tx.ops });
      arm_retry t txid
  | placement ->
      let rec_ = new_record t ~on_done ~relaying:(not malicious_client) tx (Ops placement) in
      Int_table.replace t.inflight txid rec_;
      start_2pc t rec_;
      arm_retry t txid

let submit t ?(on_done = fun _ -> ()) ?(malicious_client = false) tx =
  if not t.cfg.fast_lane then submit_locked t ~on_done ~malicious_client tx
  else
    match Merge.classify_placement (Tx.placement ~shards:t.cfg.shards tx) with
    | None -> submit_locked t ~on_done ~malicious_client tx
    | Some lane ->
        if merge_lock_conflict t lane then begin
          (* Downgrade: mergeable, but a touched key is exclusively locked
             by an in-flight 2PC transaction — take the full path. *)
          Probe.incr t.probe "merge.downgrades";
          submit_locked t ~on_done ~malicious_client tx
        end
        else submit_merge t ~on_done ~malicious_client tx lane

let run t ~until = Engine.run t.engine ~until

let committed t = Commits.committed t.commits

let aborted t = Commits.aborted t.commits

let abort_rate t = Commits.abort_rate t.commits

let throughput t ~warmup = Commits.throughput t.commits ~warmup

let latency_stats t = Commits.latency_stats t.commits

let throughput_series t = Commits.throughput_series t.commits

let view_changes t =
  Array.fold_left (fun acc ctx -> acc + (Pbft.tally ctx.pbft).Pbft.view_changes) 0 t.committees

let reference_busy_fraction t =
  if not (has_reference t) then 0.0
  else begin
    let ctx = t.committees.(ref_index t) in
    let total = Array.fold_left (fun acc node -> acc +. Node.busy_fraction node) 0.0 ctx.nodes in
    total /. float_of_int (Array.length ctx.nodes)
  end

let stuck_locks t =
  List.fold_left ( + ) 0
    (List.init t.cfg.shards (fun s -> Locks.held_count (Locks.create t.committees.(s).state)))

(* ------------------------------------------------------------------ *)
(* Fault hooks and observability (the cross-shard checker's surface)   *)
(* ------------------------------------------------------------------ *)

let set_leg_filter t f = t.leg_filter <- f

let set_probe t p =
  t.probe <- p;
  Network.set_probe t.network p;
  Array.iter (fun ctx -> Pbft.set_probe ctx.pbft p) t.committees

let crash_member t ~committee ~member = Pbft.crash t.committees.(committee).pbft ~member

let recover_member t ~committee ~member = Pbft.recover t.committees.(committee).pbft ~member

let reset_member t ~committee ~member = Pbft.reset_member t.committees.(committee).pbft ~member

let corrupt_next_snapshot t ~shard = t.committees.(shard).corrupt_next <- true

let committee_checkpoints t =
  Array.to_list t.committees
  |> List.concat_map (fun ctx ->
         List.init (Array.length ctx.nodes) (fun m ->
             match Pbft.checkpoint_cert ctx.pbft ~member:m with
             | Some (seq, root, _) -> [ (ctx.index, m, seq, root) ]
             | None -> [])
         |> List.concat)

let observer_lag t =
  Array.to_list t.committees
  |> List.map (fun ctx ->
         let hi = ref 0 in
         for m = 0 to Array.length ctx.nodes - 1 do
           hi := Int.max !hi (Pbft.last_executed ctx.pbft ~member:m)
         done;
         let obs = Pbft.last_executed ctx.pbft ~member:(Pbft.observer ctx.pbft) in
         (ctx.index, !hi - obs))

(* ---- merge fast-lane surface (oracles + tests) ---- *)

(* Flush every shard's remaining pending deltas (the run may stop between
   block boundaries), then re-fold each lane's full history against its
   recorded bases and diff with materialised state.  Empty iff every
   replica's state is exactly the canonical fold of its delta log — the
   merge-convergence oracle. *)
let merge_audit t =
  List.concat
    (List.init t.cfg.shards (fun s ->
         let ctx = t.committees.(s) in
         fold_lane t ctx;
         List.map (fun m -> (s, m)) (Merge.audit ctx.mlane ctx.state)))

let merge_folds t =
  Array.fold_left (fun acc ctx -> acc + Merge.folds ctx.mlane) 0 t.committees

let merge_lane_log t ~shard = Merge.log_length t.committees.(shard).mlane

let merge_roots t =
  List.init t.cfg.shards (fun s -> (s, Sha256.to_hex (Merge.root t.committees.(s).mlane)))

let decision_trace t = List.rev t.decisions

let prepare_evidence t ~shard ~txid = Int_table.find_opt t.committees.(shard).prepared txid

let registry_size t = Coordination.length t.registry

let advance_epoch t ~at ~seed ~epoch ~strategy =
  let committees = Array.length t.committees in
  let nodes_total = Array.fold_left (fun acc ctx -> acc + Array.length ctx.nodes) 0 t.committees in
  let from_ = Assignment.derive ~seed ~epoch:(epoch - 1) ~nodes:nodes_total ~committees in
  let to_ = Assignment.derive ~seed ~epoch ~nodes:nodes_total ~committees in
  let slot_of_global id =
    (* Global ids are dense across equal-sized committees in creation
       order. *)
    if id < 0 || id >= nodes_total then
      Invariant.fail "System.advance_epoch: node id %d outside all committees" id;
    (t.committees.(id / t.cfg.committee_size), id mod t.cfg.committee_size)
  in
  (* A transitioning node is down for as long as fetching + verifying its
     destination shard's state takes (plus re-attestation of the new
     committee, amortized). *)
  let fetch_time step =
    let dst = Stdlib.min step.Assignment.to_committee (t.cfg.shards - 1) in
    let pkg = State_transfer.pack t.committees.(dst).state in
    Float.max 1.0 (transfer_cost t pkg +. Cost_model.default.Cost_model.remote_attestation)
  in
  let batch =
    match strategy with
    | `Swap_all -> nodes_total (* one wave containing everyone who moves *)
    | `Batched_log -> Sizing.swap_batch_size ~n:t.cfg.committee_size
  in
  let waves = Assignment.transition_plan ~from_ ~to_ ~batch in
  Engine.schedule_at t.engine ~time:at (fun () ->
      Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"epoch" ~node:"epoch"
        ~args:[ ("epoch", Ev.I epoch); ("waves", Ev.I (List.length waves)) ]
        "epoch_transition_start";
      let rec run_wave w = function
        | [] ->
            Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"epoch" ~node:"epoch"
              ~args:[ ("epoch", Ev.I epoch) ]
              "epoch_transition_done"
        | wave :: rest ->
            let max_fetch = ref 1.0 in
            let moved = ref 0 in
            List.iter
              (fun step ->
                let ctx, member = slot_of_global step.Assignment.node in
                (* The observer replica (member 0) anchors measurement; it
                   is pinned infrastructure and moves only under swap-all,
                   where [Pbft.swap] restarts it with its state. *)
                if member <> 0 || strategy = `Swap_all then begin
                  Stdlib.incr moved;
                  let ft = fetch_time step in
                  if ft > !max_fetch then max_fetch := ft;
                  Pbft.swap ctx.pbft ~member ~window:ft
                end)
              wave;
            Probe.incr t.probe "epoch.waves";
            Probe.add t.probe "epoch.movers" !moved;
            if Probe.enabled t.probe then
              Probe.span t.probe ~time:(Engine.now t.engine) ~dur:!max_fetch ~cat:"epoch"
                ~node:"epoch"
                ~args:[ ("epoch", Ev.I epoch); ("wave", Ev.I w); ("movers", Ev.I !moved) ]
                "epoch_wave";
            Engine.schedule t.engine ~delay:!max_fetch (fun () -> run_wave (w + 1) rest)
      in
      run_wave 0 waves)

open Repro_util
open Repro_sim
open Repro_ledger
open Repro_core

let grace = 60.0

type tx_info = {
  txid : int;
  honest : bool;
  participants : int list;
  outcome : System.tx_outcome option;
}

type outcome = {
  mode : System.coordination_mode;
  infos : tx_info list;
  decisions : System.decision_event list;
  stuck_locks : int;
  total_before : int;
  total_after : int;
  ref_decisions : (int * bool) list;
  horizon : float;
  registry_size : int;
  ckpt_certs : (int * int * int * int) list;
  observer_lag : (int * int) list;
  merge_audit : (int * Merge.mismatch) list;
  merge_roots : (int * string) list;
}

let leg_of_op = function
  | Coordination.Prepare_tx _ -> Some Xschedule.Prepare
  | Coordination.Vote _ -> Some Xschedule.Vote
  | Coordination.Commit_tx _ | Coordination.Abort_tx _ -> Some Xschedule.Decision
  | Coordination.Merge_tx _ -> Some Xschedule.Mdelta
  (* Submissions and BeginTx are the workload, not the adversary's to
     touch — dropping them reads as a liveness bug that is not one. *)
  | Coordination.Single _ | Coordination.Begin_tx _ -> None
  (* Never seen here: System filters a batch's constituent steps
     individually before sealing the carrier, so fault probabilities act
     per leg no matter how legs are grouped. *)
  | Coordination.Batch _ -> None

(* Deterministic key living on a given shard under hash partitioning. *)
let key_on ~shards ~prefix shard =
  let rec find i =
    let k = Printf.sprintf "%s%d" prefix i in
    if Tx.shard_of_key ~shards k = shard then k else find (i + 1)
  in
  find 0

let run ?(probe = Repro_obs.Probe.none) ?(lane = false) ~engine_seed ~mode ~concurrency
    ~shards ~committee_size (sched : Xschedule.t) =
  let sys =
    System.create
      {
        (System.default_config ~shards ~committee_size) with
        System.mode;
        concurrency;
        seed = engine_seed;
        (* A run parameter rather than part of the witness: [lane:true]
           turns the fast lane on and rewrites the honest transfers as
           mergeable delta pairs (below). *)
        fast_lane = lane;
      }
  in
  System.set_probe sys probe;
  let engine = System.engine sys in
  (* Draws are a pure function of (schedule, leg-delivery order), so two
     runs with the same (engine_seed, schedule) are identical. *)
  let adv = Rng.split_named (Engine.rng engine) "xadversary" in
  System.set_leg_filter sys
    (Some
       (fun ~dst op ->
         let at = Engine.now engine in
         let live =
           List.filter (fun f -> Xschedule.active f ~at) sched.Xschedule.faults
         in
         let cut =
           List.exists
             (fun (f : Xschedule.fault) ->
               match f.Xschedule.kind with
               | Xschedule.Cut_shard s -> (
                   dst = s
                   ||
                   match op with
                   | Coordination.Vote { shard; _ } -> shard = s
                   | _ -> false)
               | _ -> false)
             live
         in
         if cut then Network.Drop
         else
           match leg_of_op op with
           | None -> Network.Deliver
           | Some leg ->
               let dropped = ref false and delay = ref 0.0 and dup = ref false in
               List.iter
                 (fun (f : Xschedule.fault) ->
                   match f.Xschedule.kind with
                   | Xschedule.Drop_leg { leg = l; p } ->
                       if l = leg && Rng.float adv 1.0 < p then dropped := true
                   | Xschedule.Dup_leg { leg = l; p } ->
                       if l = leg && Rng.float adv 1.0 < p then dup := true
                   | Xschedule.Delay_leg { leg = l; d } ->
                       if l = leg then delay := !delay +. d
                   | Xschedule.Crash_ref _ | Xschedule.Cut_shard _
                   | Xschedule.Crash_observer _ | Xschedule.Epoch_wave _ -> ())
                 live;
               if !dropped then Network.Drop
               else if !delay > 0.0 then Network.Delay !delay
               else if !dup then Network.Duplicate { copies = 2; spacing = 0.5 }
               else Network.Deliver));
  (* Crash faults against the coordinator committee's replicas (never the
     observer: member 0 is pinned measurement infrastructure).  Under
     [Flattened] there is no R, so the fault lands on shard 0 — the
     committee most transactions' 2PC machines hash to in small runs. *)
  (match mode with
  | System.With_reference | System.Flattened ->
      let committee = if mode = System.With_reference then shards else 0 in
      List.iter
        (fun (f : Xschedule.fault) ->
          match f.Xschedule.kind with
          | Xschedule.Crash_ref { member } ->
              let member = Int.max 1 (Int.min member (committee_size - 1)) in
              Engine.schedule_at engine ~time:f.Xschedule.start (fun () ->
                  System.crash_member sys ~committee ~member);
              Engine.schedule_at engine ~time:f.Xschedule.stop (fun () ->
                  System.recover_member sys ~committee ~member)
          | _ -> ())
        sched.Xschedule.faults
  | System.Client_driven -> ());
  (* Shard-side crash faults and epoch transitions apply in every mode. *)
  List.iter
    (fun (f : Xschedule.fault) ->
      match f.Xschedule.kind with
      | Xschedule.Crash_observer { shard } ->
          let shard = Int.max 0 (Int.min shard (shards - 1)) in
          Engine.schedule_at engine ~time:f.Xschedule.start (fun () ->
              System.crash_member sys ~committee:shard ~member:0);
          Engine.schedule_at engine ~time:f.Xschedule.stop (fun () ->
              System.recover_member sys ~committee:shard ~member:0)
      | Xschedule.Epoch_wave { epoch } ->
          System.advance_epoch sys ~at:f.Xschedule.start ~seed:engine_seed ~epoch
            ~strategy:`Batched_log
      | _ -> ())
    sched.Xschedule.faults;
  (* Workload: [txs] two-op cross-shard transfers.  Sources are funded
     far above the honest transfer amount; overdraft transactions ask for
     more than any funding so their debit shard votes NotOK. *)
  let src = Array.init shards (fun s -> key_on ~shards ~prefix:"src" s) in
  let dst = Array.init shards (fun s -> key_on ~shards ~prefix:"dst" s) in
  Array.iteri (fun s k -> Executor.set_balance (System.shard_state sys s) k 1000) src;
  Array.iteri (fun s k -> Executor.set_balance (System.shard_state sys s) k 0) dst;
  (* Fast-lane trials move honest transfers onto a disjoint mergeable key
     pair per shard: the convergence audit re-folds each lane's history
     from its recorded base values, which is only meaningful if lane keys
     are never written outside the fold — so malicious and overdraft
     transactions keep the locked path and its src/dst keys. *)
  let msrc = Array.init shards (fun s -> key_on ~shards ~prefix:"msrc" s) in
  let mdst = Array.init shards (fun s -> key_on ~shards ~prefix:"mdst" s) in
  if lane then begin
    Array.iteri (fun s k -> Executor.set_balance (System.shard_state sys s) k 1000) msrc;
    Array.iteri (fun s k -> Executor.set_balance (System.shard_state sys s) k 0) mdst
  end;
  let total () =
    let sum = ref 0 in
    for s = 0 to shards - 1 do
      sum :=
        !sum
        + Executor.balance (System.shard_state sys s) src.(s)
        + Executor.balance (System.shard_state sys s) dst.(s);
      if lane then
        sum :=
          !sum
          + Executor.balance (System.shard_state sys s) msrc.(s)
          + Executor.balance (System.shard_state sys s) mdst.(s)
    done;
    !sum
  in
  let total_before = total () in
  let outcomes = Array.make (sched.Xschedule.txs + 1) None in
  let txs =
    List.init sched.Xschedule.txs (fun i ->
        let txid = i + 1 in
        let mal = List.exists (Int.equal i) sched.Xschedule.malicious in
        let over = List.exists (Int.equal i) sched.Xschedule.overdraft in
        let amount = if over then 10_000 else 5 in
        let from_shard = if sched.Xschedule.contended then 0 else i mod shards in
        let to_shard =
          if sched.Xschedule.contended then 1 + (i mod Int.max 1 (shards - 1))
          else (i + 1) mod shards
        in
        let tx =
          if lane && (not mal) && not over then
            (* A conserving delta pair: unconditional Add(-a)/Add(+a) on
               the mergeable keys, classified down the fast lane. *)
            Tx.make ~txid ~client:txid
              [
                Tx.Merge { key = msrc.(from_shard); delta = Tx.Add (-amount) };
                Tx.Merge { key = mdst.(to_shard); delta = Tx.Add amount };
              ]
          else
            Tx.make ~txid ~client:txid
              [
                Tx.Debit { account = src.(from_shard); amount };
                Tx.Credit { account = dst.(to_shard); amount };
              ]
        in
        (txid, mal, tx))
  in
  List.iter
    (fun (txid, mal, tx) ->
      Engine.schedule engine
        ~delay:(1.0 +. (0.7 *. float_of_int txid))
        (fun () ->
          System.submit sys ~malicious_client:mal
            ~on_done:(fun o -> outcomes.(txid) <- Some o)
            tx))
    txs;
  let last_submit = 1.0 +. (0.7 *. float_of_int sched.Xschedule.txs) in
  let horizon = Float.max (Xschedule.heal_time sched) last_submit +. grace in
  Engine.run engine ~until:horizon;
  let infos =
    List.map
      (fun (txid, mal, tx) ->
        {
          txid;
          honest = not mal;
          participants = Tx.shards_touched ~shards tx;
          outcome = outcomes.(txid);
        })
      txs
  in
  let ref_decisions =
    (* At most one hosted machine carries each txid (R's single machine,
       or the transaction's coordinator shard when flattened). *)
    match System.coordination_machines sys with
    | [] -> []
    | machines ->
        List.filter_map
          (fun (txid, _, _) ->
            List.fold_left
              (fun acc m ->
                match acc with
                | Some _ -> acc
                | None -> (
                    match Repro_shard.Reference.state_of m ~txid with
                    | Some Repro_shard.Reference.Committed -> Some (txid, true)
                    | Some Repro_shard.Reference.Aborted -> Some (txid, false)
                    | Some _ | None -> None))
              None machines)
          txs
  in
  {
    mode;
    infos;
    decisions = System.decision_trace sys;
    stuck_locks = System.stuck_locks sys;
    total_before;
    total_after = total ();
    ref_decisions;
    horizon;
    registry_size = System.registry_size sys;
    ckpt_certs = System.committee_checkpoints sys;
    observer_lag = System.observer_lag sys;
    merge_audit = System.merge_audit sys;
    merge_roots = System.merge_roots sys;
  }

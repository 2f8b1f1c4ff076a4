open Repro_util
open Repro_ledger
open Repro_core

(* ------------------------------------------------------------------ *)
(* Coordination registry                                               *)
(* ------------------------------------------------------------------ *)

let test_registry_roundtrip () =
  let r = Coordination.create_registry () in
  let op = Coordination.Begin_tx { txid = 7; participants = [ 0; 2 ] } in
  let tag = Coordination.register r op in
  Alcotest.(check bool) "lookup returns op" true (Coordination.lookup r tag = Some op);
  Alcotest.(check bool) "unknown tag" true (Coordination.lookup r 9999 = None)

let test_registry_grows () =
  let r = Coordination.create_registry () in
  let tags =
    List.init 3000 (fun i -> Coordination.register r (Coordination.Vote { txid = i; shard = 0; ok = true }))
  in
  Alcotest.(check int) "sequential tags" 2999 (List.nth tags 2999)

let test_registry_release () =
  let r = Coordination.create_registry () in
  let v7 = Coordination.Vote { txid = 7; shard = 0; ok = true } in
  let v8 = Coordination.Vote { txid = 8; shard = 1; ok = false } in
  let t7 = Coordination.register r v7 in
  let _ = Coordination.register r v8 in
  Alcotest.(check int) "two live entries" 2 (Coordination.length r);
  (* Re-registering a structurally identical op reuses its tag: a retried
     leg does not grow the registry. *)
  Alcotest.(check int) "idempotent register" t7 (Coordination.register r v7);
  Alcotest.(check int) "still two entries" 2 (Coordination.length r);
  Coordination.release r ~txid:7;
  Alcotest.(check int) "txid 7 compacted" 1 (Coordination.length r);
  Alcotest.(check bool) "released tag gone" true (Coordination.lookup r t7 = None);
  (* Release is keyed on txid, so a fresh registration gets a fresh tag. *)
  let t7' = Coordination.register r v7 in
  Alcotest.(check bool) "new tag after release" true (t7' <> t7);
  Alcotest.(check int) "txid extraction" 8 (Coordination.txid_of_op v8);
  Coordination.release r ~txid:9999 (* unknown txid is a no-op *)

(* The model for the int-keyed registry: the structural-[Hashtbl]
   registry it replaced, which hashed whole ops.  Both hand out tags
   from 0 in registration order, so they must agree tag for tag. *)
module Structural_registry = struct
  type t = {
    mutable next : int;
    ops : (int, Coordination.op) Hashtbl.t;
    index : (Coordination.op, int) Hashtbl.t;
    by_txid : (int, int list) Hashtbl.t;
  }

  let create () =
    { next = 0; ops = Hashtbl.create 16; index = Hashtbl.create 16; by_txid = Hashtbl.create 16 }

  let register r op =
    match Hashtbl.find_opt r.index op with
    | Some tag -> tag
    | None ->
        let tag = r.next in
        r.next <- tag + 1;
        Hashtbl.replace r.ops tag op;
        Hashtbl.replace r.index op tag;
        let txid = Coordination.txid_of_op op in
        let tags = Option.value (Hashtbl.find_opt r.by_txid txid) ~default:[] in
        Hashtbl.replace r.by_txid txid (tag :: tags);
        tag

  let release r ~txid =
    List.iter
      (fun tag ->
        Option.iter (Hashtbl.remove r.index) (Hashtbl.find_opt r.ops tag);
        Hashtbl.remove r.ops tag)
      (Option.value (Hashtbl.find_opt r.by_txid txid) ~default:[]);
    Hashtbl.remove r.by_txid txid
end

type registry_cmd =
  | Register of Coordination.op
  | Register_twice of Coordination.op  (* one op sent to two committees *)
  | Release of int

let gen_registry_cmds =
  let open QCheck.Gen in
  let txid = int_bound 4 in
  let tx_ops =
    oneofl
      [
        [];
        [ Tx.Put { key = "k0"; value = "v" } ];
        [ Tx.Debit { account = "a"; amount = 1 }; Tx.Credit { account = "b"; amount = 1 } ];
      ]
  in
  let participants = oneofl [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 1; 2 ] ] in
  let coord_step =
    txid >>= fun txid ->
    oneof
      [
        map (fun participants -> Coordination.Begin_tx { txid; participants }) participants;
        map2 (fun shard ok -> Coordination.Vote { txid; shard; ok }) (int_bound 2) bool;
      ]
  in
  let op =
    txid >>= fun txid ->
    frequency
      [
        (1, map (fun ops -> Coordination.Single { txid; ops }) tx_ops);
        (2, coord_step);
        (2, map (fun ops -> Coordination.Prepare_tx { txid; ops }) tx_ops);
        (1, map (fun ops -> Coordination.Commit_tx { txid; ops }) tx_ops);
        (1, map (fun ops -> Coordination.Abort_tx { txid; ops }) tx_ops);
        ( 1,
          map
            (fun n -> Coordination.Merge_tx { txid; deltas = [ ("ctr_" ^ string_of_int n, Tx.Add n) ] })
            (int_bound 2) );
        ( 2,
          map2
            (fun batch steps -> Coordination.Batch { batch; steps })
            (int_bound 3) (list_size (1 -- 3) coord_step) );
      ]
  in
  let release = oneof [ txid; map Coordination.batch_txid (int_bound 3) ] in
  list_size (1 -- 60)
    (frequency
       [
         (5, map (fun o -> Register o) op);
         (2, map (fun o -> Register_twice o) op);
         (2, map (fun txid -> Release txid) release);
       ])

let prop_registry_matches_structural_model =
  QCheck.Test.make ~name:"registry = structural model" ~count:300
    (QCheck.make ~print:(fun cmds -> Printf.sprintf "%d commands" (List.length cmds))
       gen_registry_cmds)
    (fun cmds ->
      let r = Coordination.create_registry () and m = Structural_registry.create () in
      let agree () =
        Coordination.length r = Hashtbl.length m.Structural_registry.ops
        && List.for_all
             (fun tag ->
               Coordination.lookup r tag = Hashtbl.find_opt m.Structural_registry.ops tag)
             (List.init (m.Structural_registry.next + 1) Fun.id)
      in
      let register op = Coordination.register r op = Structural_registry.register m op in
      let step = function
        | Register op -> register op
        | Register_twice op -> register op && register op
        | Release txid ->
            Coordination.release r ~txid;
            Structural_registry.release m ~txid;
            true
      in
      List.for_all (fun cmd -> step cmd && agree ()) cmds
      &&
      (List.iter (fun txid -> Coordination.release r ~txid)
         (List.init 5 Fun.id @ List.init 4 Coordination.batch_txid);
       Coordination.length r = 0))

let test_op_cost_positive () =
  let costs = Repro_crypto.Cost_model.default in
  let ops = [ Tx.Put { key = "k"; value = "v" } ] in
  Alcotest.(check bool) "prepare cost > single cost" true
    (Coordination.op_cost costs (Coordination.Prepare_tx { txid = 1; ops })
    > Coordination.op_cost costs (Coordination.Single { txid = 1; ops }) /. 2.0)

(* The slot content of a batch is a pure function of its steps: any
   submission interleaving must sort to the same canonical order. *)
let test_batch_order_permutation_determinism () =
  let steps =
    [
      Coordination.Vote { txid = 3; shard = 1; ok = true };
      Coordination.Begin_tx { txid = 4; participants = [ 0; 1 ] };
      Coordination.Vote { txid = 3; shard = 0; ok = false };
      Coordination.Begin_tx { txid = 2; participants = [ 1; 2 ] };
      Coordination.Vote { txid = 2; shard = 2; ok = true };
      Coordination.Vote { txid = 3; shard = 1; ok = false };
    ]
  in
  let canon = List.sort Coordination.batch_order steps in
  let permutations =
    [ List.rev steps; (match steps with a :: b :: rest -> b :: (rest @ [ a ]) | l -> l) ]
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) "permutation sorts to the same slot" true
        (List.sort Coordination.batch_order p = canon))
    permutations;
  (* Begins sort before votes, txids ascend within each rank. *)
  (match canon with
  | Coordination.Begin_tx { txid = 2; _ } :: Coordination.Begin_tx { txid = 4; _ } :: _ -> ()
  | _ -> Alcotest.fail "begins must lead the slot in txid order");
  Alcotest.(check int) "batch txids are negative and distinct" (-3)
    (Coordination.batch_txid 2)

(* ------------------------------------------------------------------ *)
(* System fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let make_system ?(shards = 2) ?(mode = System.With_reference) () =
  System.create { (System.default_config ~shards ~committee_size:3) with System.mode }

(* Find keys living in given shards. *)
let key_in sys shard =
  let shards = System.shards sys in
  let rec find i =
    let k = Printf.sprintf "acct%d" i in
    if Tx.shard_of_key ~shards k = shard then k else find (i + 1)
  in
  find 0

let fund sys key amount =
  let shard = Tx.shard_of_key ~shards:(System.shards sys) key in
  Executor.set_balance (System.shard_state sys shard) key amount

let transfer_tx ~txid sys ~from_ ~to_ ~amount =
  ignore sys;
  Tx.make ~txid [ Tx.Debit { account = from_; amount }; Tx.Credit { account = to_; amount } ]

let run_to_done sys = System.run sys ~until:20.0

(* ------------------------------------------------------------------ *)
(* Single-shard transactions                                           *)
(* ------------------------------------------------------------------ *)

let test_single_shard_commit () =
  let sys = make_system () in
  let a = key_in sys 0 and outcome = ref None in
  let b = (* second key in the same shard *)
    let rec find i =
      let k = Printf.sprintf "other%d" i in
      if Tx.shard_of_key ~shards:2 k = 0 then k else find (i + 1)
    in
    find 0
  in
  fund sys a 100;
  fund sys b 0;
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:40);
  run_to_done sys;
  Alcotest.(check bool) "committed" true (!outcome = Some System.Committed);
  Alcotest.(check int) "debited" 60 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "credited" 40 (Executor.balance (System.shard_state sys 0) b);
  Alcotest.(check int) "counted" 1 (System.committed sys)

let test_one_member_committees_commit () =
  (* A committee of one is its own quorum: the leader's pre-prepare vote
     alone must prepare the slot. *)
  let open Repro_consensus in
  List.iter
    (fun variant ->
      let r =
        Harness.run ~duration:3.0 ~warmup:1.0 ~variant ~n:1 ~topology:(Repro_sim.Topology.lan ())
          ~workload:(Harness.Open_loop { rate = 200.0; clients = 4 })
          ()
      in
      Alcotest.(check bool) (variant.Config.name ^ " n=1 commits") true (r.Harness.committed > 0))
    Config.[ hl; ahl; ahl_plus; ahlr ];
  let sys = System.create (System.default_config ~shards:1 ~committee_size:1) in
  let a = key_in sys 0 and outcome = ref None in
  fund sys a 100;
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:(a ^ "x") ~amount:40);
  run_to_done sys;
  Alcotest.(check bool) "one-member shard commits" true (!outcome = Some System.Committed)

let test_single_shard_abort_on_overdraft () =
  let sys = make_system () in
  let a = key_in sys 0 in
  fund sys a 10;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:(key_in sys 0 ^ "x") ~amount:999);
  run_to_done sys;
  Alcotest.(check bool) "aborted" true (!outcome = Some System.Aborted);
  Alcotest.(check int) "unchanged" 10 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "abort counted" 1 (System.aborted sys)

(* ------------------------------------------------------------------ *)
(* Cross-shard transactions (the paper's core protocol)                *)
(* ------------------------------------------------------------------ *)

let test_cross_shard_commit () =
  let sys = make_system () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 0;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  run_to_done sys;
  Alcotest.(check bool) "committed" true (!outcome = Some System.Committed);
  Alcotest.(check int) "shard 0 debited" 70 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "shard 1 credited" 30 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "no stuck locks" 0 (System.stuck_locks sys);
  (* The reference committee recorded the decision. *)
  match System.reference_machine sys with
  | Some r ->
      Alcotest.(check bool) "R says committed" true
        (Repro_shard.Reference.state_of r ~txid:1 = Some Repro_shard.Reference.Committed)
  | None -> Alcotest.fail "reference expected"

let test_cross_shard_atomic_abort () =
  (* The debit shard refuses (insufficient funds): the credit shard must
     not apply its leg — the RapidChain failure fixed. *)
  let sys = make_system () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 10;
  fund sys b 0;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:500);
  run_to_done sys;
  Alcotest.(check bool) "aborted" true (!outcome = Some System.Aborted);
  Alcotest.(check int) "no debit" 10 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "no credit" 0 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "locks all released" 0 (System.stuck_locks sys)

let test_cross_shard_money_conservation () =
  let sys = make_system ~shards:3 () in
  let keys = List.init 12 (fun i -> Printf.sprintf "acct%d" i) in
  List.iter (fun k -> fund sys k 100) keys;
  let rng = Rng.create 99L in
  let done_count = ref 0 in
  List.iteri
    (fun txid _ ->
      let from_ = List.nth keys (Rng.int rng 12) in
      let to_ = List.nth keys (Rng.int rng 12) in
      if from_ <> to_ then
        System.submit sys ~on_done:(fun _ -> incr done_count)
          (transfer_tx ~txid sys ~from_ ~to_ ~amount:(1 + Rng.int rng 30)))
    (List.init 30 Fun.id);
  System.run sys ~until:40.0;
  let total =
    List.fold_left
      (fun acc k ->
        acc + Executor.balance (System.shard_state sys (Tx.shard_of_key ~shards:3 k)) k)
      0 keys
  in
  Alcotest.(check int) "money conserved across shards" 1200 total;
  Alcotest.(check int) "no stuck locks" 0 (System.stuck_locks sys);
  Alcotest.(check bool) "transactions finished" true (!done_count > 20)

let test_client_driven_mode_commits () =
  let sys = make_system ~mode:System.Client_driven () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  run_to_done sys;
  Alcotest.(check bool) "committed" true (!outcome = Some System.Committed);
  Alcotest.(check int) "payer debited" 70 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "payee credited" 30 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "no dangling locks" 0 (System.stuck_locks sys)

let test_malicious_client_with_reference_still_completes () =
  (* The paper's liveness claim: R's nodes take over when the coordinator
     goes silent, so the transaction terminates and locks are freed. *)
  let sys = make_system ~mode:System.With_reference () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  System.submit sys ~malicious_client:true (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  System.run sys ~until:60.0;
  Alcotest.(check int) "locks eventually released" 0 (System.stuck_locks sys);
  match System.reference_machine sys with
  | Some r ->
      Alcotest.(check bool) "R decided" true
        (match Repro_shard.Reference.state_of r ~txid:1 with
        | Some Repro_shard.Reference.Committed | Some Repro_shard.Reference.Aborted -> true
        | _ -> false)
  | None -> Alcotest.fail "reference expected"

let test_malicious_client_client_driven_blocks () =
  (* The OmniLedger failure mode: without R the locks dangle forever. *)
  let sys = make_system ~mode:System.Client_driven () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  System.submit sys ~malicious_client:true (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  System.run sys ~until:60.0;
  Alcotest.(check bool) "locks stuck forever" true (System.stuck_locks sys > 0);
  (* And the locked account is unusable for later transactions. *)
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:2 sys ~from_:a ~to_:b ~amount:10);
  System.run sys ~until:90.0;
  Alcotest.(check bool) "victim aborted" true (!outcome = Some System.Aborted)

let test_lock_conflict_aborts_one () =
  let sys = make_system () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 100;
  let outcomes = ref [] in
  (* Two conflicting transfers over the same accounts, submitted together. *)
  System.submit sys ~on_done:(fun o -> outcomes := o :: !outcomes)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:10);
  System.submit sys ~on_done:(fun o -> outcomes := o :: !outcomes)
    (transfer_tx ~txid:2 sys ~from_:b ~to_:a ~amount:10);
  System.run sys ~until:30.0;
  Alcotest.(check int) "both finished" 2 (List.length !outcomes);
  Alcotest.(check int) "no stuck locks" 0 (System.stuck_locks sys);
  let total =
    Executor.balance (System.shard_state sys 0) a + Executor.balance (System.shard_state sys 1) b
  in
  Alcotest.(check int) "conserved under conflict" 200 total

let test_chains_validate () =
  let sys = make_system () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  System.submit sys (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:5);
  run_to_done sys;
  for s = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d chain valid" s)
      true
      (Block.Chain.validate (System.shard_chain sys s));
    Alcotest.(check bool) "blocks were appended" true (Block.Chain.height (System.shard_chain sys s) >= 1)
  done

let test_wait_die_reduces_aborts () =
  (* Section 6.4 extension: under contention, parking older transactions
     converts aborts into commits. *)
  let run concurrency =
    let sys =
      System.create
        { (System.default_config ~shards:3 ~committee_size:3) with System.concurrency }
    in
    let keys = List.init 4 (fun i -> Printf.sprintf "hot%d" i) in
    List.iter (fun k -> fund sys k 10_000) keys;
    let rng = Rng.create 31L in
    for txid = 1 to 40 do
      let from_ = List.nth keys (Rng.int rng 4) in
      let to_ = List.nth keys (Rng.int rng 4) in
      if from_ <> to_ then
        System.submit sys (transfer_tx ~txid sys ~from_ ~to_ ~amount:1)
    done;
    System.run sys ~until:40.0;
    (System.committed sys, System.aborted sys, System.stuck_locks sys)
  in
  let c2pl, a2pl, s2pl = run System.Two_phase_locking in
  let cwd, awd, swd = run System.Wait_die in
  Alcotest.(check int) "2PL leaves no locks" 0 s2pl;
  Alcotest.(check int) "wait-die leaves no locks" 0 swd;
  Alcotest.(check bool) "wait-die commits at least as many" true (cwd >= c2pl);
  Alcotest.(check bool) "wait-die aborts no more" true (awd <= a2pl);
  Alcotest.(check int) "same workload size" (c2pl + a2pl) (cwd + awd)

let test_malicious_client_fallback_commits () =
  (* Sharper than "R decided": when every prepare succeeds, the fallback
     sweep must reach the COMMIT it owes — reading the shard observers'
     recorded votes, not guessing from lock state — and both legs must
     apply. *)
  let sys = make_system ~mode:System.With_reference () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 0;
  let outcome = ref None in
  System.submit sys ~malicious_client:true ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  System.run sys ~until:60.0;
  Alcotest.(check bool) "fallback commits" true (!outcome = Some System.Committed);
  Alcotest.(check int) "debit applied" 70 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "credit applied" 30 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "no stuck locks" 0 (System.stuck_locks sys);
  match System.reference_machine sys with
  | Some r ->
      Alcotest.(check bool) "R recorded COMMIT" true
        (Repro_shard.Reference.state_of r ~txid:1 = Some Repro_shard.Reference.Committed)
  | None -> Alcotest.fail "reference expected"

(* The batched commit path end to end: cross-shard transfers still commit,
   the carrier slots leave their footprint in the batch histograms, and the
   registry drains once the batches execute. *)
let test_batched_commit_probes_and_registry () =
  let sys = System.create (System.default_config ~shards:2 ~committee_size:3) in
  let metrics = Repro_obs.Metrics.create () in
  System.set_probe sys (Repro_obs.Probe.make ~trace:(Repro_obs.Trace.create ()) ~metrics);
  (* Distinct account pairs so no transfer lock-conflicts with another. *)
  let pick shard n =
    let rec go i acc =
      if List.length acc = n then List.rev acc
      else
        let k = Printf.sprintf "user%d" i in
        go (i + 1) (if Tx.shard_of_key ~shards:2 k = shard then k :: acc else acc)
    in
    go 0 []
  in
  let sources = pick 0 6 and dests = pick 1 6 in
  List.iter (fun k -> fund sys k 100) sources;
  List.iter (fun k -> fund sys k 0) dests;
  let done_count = ref 0 in
  List.iteri
    (fun i (from_, to_) ->
      System.submit sys ~on_done:(fun _ -> incr done_count)
        (transfer_tx ~txid:(i + 1) sys ~from_ ~to_ ~amount:5))
    (List.combine sources dests);
  System.run sys ~until:40.0;
  Alcotest.(check int) "all transfers decided" 6 !done_count;
  Alcotest.(check int) "all committed" 6 (System.committed sys);
  Alcotest.(check int) "balances moved" 30
    (List.fold_left (fun acc k -> acc + Executor.balance (System.shard_state sys 1) k) 0 dests);
  let hist_count name =
    match Repro_obs.Metrics.histogram_stats metrics name with
    | Some s -> Repro_util.Stats.count s
    | None -> 0
  in
  Alcotest.(check bool) "batch-size histogram recorded" true (hist_count "2pc.batch.size" > 0);
  Alcotest.(check bool) "pipeline-depth histogram recorded" true
    (hist_count "2pc.batch.pipeline_depth" > 0);
  Alcotest.(check int) "registry drained at quiescence" 0 (System.registry_size sys)

(* SharPer-style flattened coordination: no dedicated R, the coordinator
   shard's own committee orders the 2PC machine. *)
let test_flattened_cross_shard_commit () =
  let sys = make_system ~mode:System.Flattened () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 0;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  run_to_done sys;
  Alcotest.(check bool) "committed" true (!outcome = Some System.Committed);
  Alcotest.(check int) "debited" 70 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "credited" 30 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check bool) "no dedicated reference committee" true
    (System.reference_machine sys = None);
  Alcotest.(check bool) "a shard-hosted machine recorded COMMIT" true
    (List.exists
       (fun r -> Repro_shard.Reference.state_of r ~txid:1 = Some Repro_shard.Reference.Committed)
       (System.coordination_machines sys))

let test_flattened_fallback_commits () =
  (* The silent-client defense must survive flattening: the coordinator
     shard's machine owes the same fallback sweep R would run. *)
  let sys = make_system ~mode:System.Flattened () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 0;
  let outcome = ref None in
  System.submit sys ~malicious_client:true ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  System.run sys ~until:60.0;
  Alcotest.(check bool) "fallback commits" true (!outcome = Some System.Committed);
  Alcotest.(check int) "credit applied" 30 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "no stuck locks" 0 (System.stuck_locks sys)

let test_wait_die_park_timeout_aborts () =
  (* An older transaction parks behind a lock that never frees (malicious
     client in client-driven mode); the 4s park timeout must convert the
     wait into a NotOK vote so the victim terminates instead of hanging. *)
  let sys =
    System.create
      {
        (System.default_config ~shards:2 ~committee_size:3) with
        System.mode = System.Client_driven;
        concurrency = System.Wait_die;
      }
  in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 100;
  System.submit sys ~malicious_client:true (transfer_tx ~txid:5 sys ~from_:a ~to_:b ~amount:10);
  System.run sys ~until:15.0;
  Alcotest.(check bool) "attacker's locks held" true (System.stuck_locks sys > 0);
  (* The shard observer recorded the undecided prepare's outcome — the
     evidence the reference committee's sweep would read. *)
  Alcotest.(check bool) "prepare evidence recorded" true
    (System.prepare_evidence sys ~shard:0 ~txid:5 = Some true);
  let outcome = ref None in
  (* txid 1 < 5: wait-die parks it rather than killing it outright. *)
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:10);
  System.run sys ~until:40.0;
  Alcotest.(check bool) "parked victim aborts on timeout" true (!outcome = Some System.Aborted);
  Alcotest.(check int) "no balance change from the victim" 100
    (Executor.balance (System.shard_state sys 1) b)

let test_duplicate_decision_leg_idempotent () =
  (* An adversary re-delivering CommitTx must not double-apply: the
     observer's applied-set makes the decision leg idempotent. *)
  let sys = make_system ~mode:System.With_reference () in
  System.set_leg_filter sys
    (Some
       (fun ~dst:_ op ->
         match op with
         | Coordination.Commit_tx _ | Coordination.Abort_tx _ ->
             Repro_sim.Network.Duplicate { copies = 3; spacing = 0.5 }
         | _ -> Repro_sim.Network.Deliver));
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 0;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  System.run sys ~until:30.0;
  Alcotest.(check bool) "committed once" true (!outcome = Some System.Committed);
  Alcotest.(check int) "debit applied exactly once" 70
    (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "credit applied exactly once" 30
    (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "no stuck locks" 0 (System.stuck_locks sys)

let test_client_driven_aborts_on_first_not_ok () =
  (* Client-driven coordination decides ABORT on the first NotOK without
     waiting for the other shard, and must still release the OK shard's
     locks. *)
  let sys = make_system ~mode:System.Client_driven () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 5;
  fund sys b 50;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:500);
  run_to_done sys;
  Alcotest.(check bool) "aborted" true (!outcome = Some System.Aborted);
  Alcotest.(check int) "debit shard untouched" 5 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "credit shard untouched" 50 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "OK shard's locks released" 0 (System.stuck_locks sys)

let test_registry_bounded_under_retries () =
  (* Regression for the retry leak: honest-client retries and the fallback
     sweep re-register the same ops; at quiescence every finished
     transaction's entries must have been compacted away. *)
  let sys = make_system ~mode:System.With_reference () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 1000;
  fund sys b 1000;
  for txid = 1 to 6 do
    let malicious_client = txid mod 2 = 0 in
    System.submit sys ~malicious_client
      (transfer_tx ~txid sys ~from_:a ~to_:b ~amount:1)
  done;
  System.run sys ~until:120.0;
  Alcotest.(check int) "all decided, no stuck locks" 0 (System.stuck_locks sys);
  Alcotest.(check int) "registry fully compacted" 0 (System.registry_size sys)

(* ------------------------------------------------------------------ *)
(* Commutative fast lane (DESIGN §18)                                  *)
(* ------------------------------------------------------------------ *)

let make_lane_system ?(shards = 2) () =
  System.create { (System.default_config ~shards ~committee_size:3) with System.fast_lane = true }

(* A counter key (disjoint from account keys) living in the given shard. *)
let ctr_key_in sys shard =
  let shards = System.shards sys in
  let rec find i =
    let k = Kvstore_cc.counter_key (Printf.sprintf "c%d" i) in
    if Tx.shard_of_key ~shards k = shard then k else find (i + 1)
  in
  find 0

let merge_tx ~txid deltas =
  Tx.make ~txid (List.map (fun (key, delta) -> Tx.Merge { key; delta }) deltas)

let test_fastlane_mergeable_commits_via_lane () =
  let sys = make_lane_system () in
  let metrics = Repro_obs.Metrics.create () in
  System.set_probe sys (Repro_obs.Probe.make ~trace:(Repro_obs.Trace.create ()) ~metrics);
  let k0 = ctr_key_in sys 0 and k1 = ctr_key_in sys 1 in
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (merge_tx ~txid:1 [ (k0, Tx.Add 7); (k1, Tx.Add 5) ]);
  run_to_done sys;
  Alcotest.(check bool) "committed" true (!outcome = Some System.Committed);
  Alcotest.(check int) "shard 0 counter folded" 7 (Executor.balance (System.shard_state sys 0) k0);
  Alcotest.(check int) "shard 1 counter folded" 5 (Executor.balance (System.shard_state sys 1) k1);
  Alcotest.(check int) "one delta per shard" 1 (System.merge_lane_log sys ~shard:0);
  Alcotest.(check int) "one delta per shard'" 1 (System.merge_lane_log sys ~shard:1);
  Alcotest.(check int) "lane hit counted" 1 (Repro_obs.Metrics.counter metrics "merge.lane_hits");
  Alcotest.(check int) "no downgrade" 0 (Repro_obs.Metrics.counter metrics "merge.downgrades");
  Alcotest.(check bool) "lane state converged" true (System.merge_audit sys = []);
  Alcotest.(check int) "one root per shard" 2 (List.length (System.merge_roots sys));
  Alcotest.(check int) "no locks were ever taken" 0 (System.stuck_locks sys)

let test_fastlane_downgrade_on_lock_conflict () =
  (* A mergeable transaction whose key is under an in-flight exclusive
     lock must NOT ride the lane — deltas folded around the lock window
     would interleave with the 2PC transaction's validated read. *)
  let sys = make_lane_system () in
  let metrics = Repro_obs.Metrics.create () in
  System.set_probe sys (Repro_obs.Probe.make ~trace:(Repro_obs.Trace.create ()) ~metrics);
  let k0 = ctr_key_in sys 0 and k1 = ctr_key_in sys 1 in
  (* Simulate an in-flight 2PC holding k0's lock at submit time. *)
  let locks = Locks.create (System.shard_state sys 0) in
  Alcotest.(check bool) "foreign lock acquired" true (Locks.acquire locks ~txid:99 k0);
  System.submit sys (merge_tx ~txid:1 [ (k0, Tx.Add 3); (k1, Tx.Add 4) ]);
  System.run sys ~until:60.0;
  Alcotest.(check int) "downgrade counted" 1 (Repro_obs.Metrics.counter metrics "merge.downgrades");
  Alcotest.(check int) "no lane hit" 0 (Repro_obs.Metrics.counter metrics "merge.lane_hits");
  Alcotest.(check int) "lane log empty (shard 0)" 0 (System.merge_lane_log sys ~shard:0);
  Alcotest.(check int) "lane log empty (shard 1)" 0 (System.merge_lane_log sys ~shard:1);
  Alcotest.(check bool) "audit trivially clean" true (System.merge_audit sys = [])

let test_fastlane_dropped_delta_leg_retried () =
  (* An adversary dropping a delta leg must only delay it: the retry sweep
     re-drives the leg and the lane still converges to the canonical fold. *)
  let sys = make_lane_system () in
  let dropped = ref 0 in
  System.set_leg_filter sys
    (Some
       (fun ~dst op ->
         match op with
         | Coordination.Merge_tx _ when dst = 1 && !dropped = 0 ->
             incr dropped;
             Repro_sim.Network.Drop
         | _ -> Repro_sim.Network.Deliver));
  let k0 = ctr_key_in sys 0 and k1 = ctr_key_in sys 1 in
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (merge_tx ~txid:1 [ (k0, Tx.Add 2); (k1, Tx.Add 9) ]);
  System.run sys ~until:60.0;
  Alcotest.(check int) "the filter dropped one leg" 1 !dropped;
  Alcotest.(check bool) "still committed" true (!outcome = Some System.Committed);
  Alcotest.(check int) "dropped leg re-driven" 9 (Executor.balance (System.shard_state sys 1) k1);
  Alcotest.(check int) "leg appended exactly once" 1 (System.merge_lane_log sys ~shard:1);
  Alcotest.(check bool) "lane state converged" true (System.merge_audit sys = [])

let test_fastlane_duplicate_delta_leg_idempotent () =
  (* Re-delivered delta legs must not double-count: the applied-table makes
     the Merge_tx leg idempotent, exactly like decision legs. *)
  let sys = make_lane_system () in
  System.set_leg_filter sys
    (Some
       (fun ~dst:_ op ->
         match op with
         | Coordination.Merge_tx _ -> Repro_sim.Network.Duplicate { copies = 3; spacing = 0.5 }
         | _ -> Repro_sim.Network.Deliver));
  (* Counter base names whose ctr_ keys land in shards 0 and 1. *)
  let ctr_base_in shard =
    let shards = System.shards sys in
    let rec find i =
      let c = Printf.sprintf "c%d" i in
      if Tx.shard_of_key ~shards (Kvstore_cc.counter_key c) = shard then c else find (i + 1)
    in
    find 0
  in
  let c0 = ctr_base_in 0 and c1 = ctr_base_in 1 in
  let k0 = Kvstore_cc.counter_key c0 and k1 = Kvstore_cc.counter_key c1 in
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (Tx.make ~txid:1 (Kvstore_cc.ops_of_increment ~keys:[ c0; c1 ] ~amount:11));
  System.run sys ~until:30.0;
  Alcotest.(check bool) "committed once" true (!outcome = Some System.Committed);
  Alcotest.(check int) "delta applied exactly once (shard 0)" 11
    (Executor.balance (System.shard_state sys 0) k0);
  Alcotest.(check int) "delta applied exactly once (shard 1)" 11
    (Executor.balance (System.shard_state sys 1) k1);
  Alcotest.(check int) "lane log deduplicated" 1 (System.merge_lane_log sys ~shard:0);
  Alcotest.(check int) "lane log deduplicated'" 1 (System.merge_lane_log sys ~shard:1);
  Alcotest.(check bool) "lane state converged" true (System.merge_audit sys = [])

let test_fastlane_mixed_tx_keeps_locked_path () =
  (* A transaction with any non-commutative op (a conditional debit) must
     take the 2PC path even with the lane enabled. *)
  let sys = make_lane_system () in
  let a = key_in sys 0 and b = key_in sys 1 in
  fund sys a 100;
  fund sys b 0;
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o)
    (transfer_tx ~txid:1 sys ~from_:a ~to_:b ~amount:30);
  run_to_done sys;
  Alcotest.(check bool) "committed via 2PC" true (!outcome = Some System.Committed);
  Alcotest.(check int) "debited" 70 (Executor.balance (System.shard_state sys 0) a);
  Alcotest.(check int) "credited" 30 (Executor.balance (System.shard_state sys 1) b);
  Alcotest.(check int) "nothing rode the lane" 0
    (System.merge_lane_log sys ~shard:0 + System.merge_lane_log sys ~shard:1)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_smallbank_setup_and_gen () =
  let sys = make_system ~shards:4 () in
  let wl = Workload.create Workload.Smallbank ~keyspace:100 ~theta:0.5 ~rng:(Rng.create 2L) in
  Workload.setup wl sys ~initial_balance:500;
  (* Balances landed in the right shards. *)
  let key = Smallbank_cc.checking_key "acc0" in
  let shard = Tx.shard_of_key ~shards:4 key in
  Alcotest.(check int) "funded" 500 (Executor.balance (System.shard_state sys shard) key);
  let tx = Workload.next_tx wl sys ~client:0 in
  Alcotest.(check int) "sendPayment has 2 ops" 2 (List.length tx.Tx.ops)

let test_workload_cross_fraction_matches_eq3 () =
  let sys = make_system ~shards:4 () in
  let wl =
    Workload.create (Workload.Kvstore { updates_per_tx = 3 }) ~keyspace:50_000 ~theta:0.0
      ~rng:(Rng.create 2L)
  in
  for _ = 1 to 3000 do
    ignore (Workload.next_tx wl sys ~client:0)
  done;
  let expected = Repro_shard.Sizing.expected_cross_shard_fraction ~shards:4 ~args:3 in
  let seen = Workload.cross_shard_fraction_seen wl in
  Alcotest.(check (float 0.05)) "appendix B prediction" expected seen

let test_workload_txids_unique () =
  let sys = make_system () in
  let wl = Workload.create Workload.Smallbank ~keyspace:100 ~theta:0.0 ~rng:(Rng.create 2L) in
  let a = Workload.next_tx wl sys ~client:0 in
  let b = Workload.next_tx wl sys ~client:1 in
  Alcotest.(check bool) "distinct txids" true (a.Tx.txid <> b.Tx.txid)

(* The workload's per-account shard cache is invisible: every emitted
   transaction carries the placement an uncached [Tx.shard_of_key]
   grouping gives, for each kind and shard count, also when one workload
   is driven against systems of different sizes in turn. *)
let placement_systems =
  lazy (Array.of_list (List.map (fun shards -> (shards, make_system ~shards ())) [ 1; 2; 5; 12 ]))

let prop_workload_placement_uncached =
  QCheck.Test.make ~name:"workload placement uncached" ~count:40
    QCheck.(triple (int_bound 2) (int_bound 1000) (list_of_size Gen.(1 -- 4) (int_bound 3)))
    (fun (kind, seed, visits) ->
      let kind =
        match kind with
        | 0 -> Workload.Kvstore { updates_per_tx = 3 }
        | 1 -> Workload.Smallbank
        | _ -> Workload.Hot_increments { increment_fraction = 0.5 }
      in
      let wl =
        Workload.create kind ~keyspace:64 ~theta:0.9 ~rng:(Rng.create (Int64.of_int seed))
      in
      List.for_all
        (fun visit ->
          let shards, sys = (Lazy.force placement_systems).(visit) in
          Workload.setup wl sys ~initial_balance:100;
          List.for_all
            (fun _ ->
              let tx = Workload.next_tx wl sys ~client:0 in
              let uncached = Tx.make ~txid:tx.Tx.txid tx.Tx.ops in
              Tx.placement ~shards tx = Tx.placement ~shards uncached)
            (List.init 30 Fun.id))
        visits)

(* ------------------------------------------------------------------ *)
(* Genesis on read: deferred savings funding against eager funding      *)
(* ------------------------------------------------------------------ *)

(* Each shard's root and key count after SmallBank setup on 4 shards x
   500 accounts, recorded when setup still funded both balances of each
   account in one interleaved pass. *)
let test_workload_setup_known_answers () =
  let sys = System.create (System.default_config ~shards:4 ~committee_size:1) in
  let wl = Workload.create Workload.Smallbank ~keyspace:500 ~theta:0.99 ~rng:(Rng.create 1L) in
  Workload.setup wl sys ~initial_balance:1_000;
  List.iteri
    (fun s (root, count) ->
      let st = System.shard_state sys s in
      Alcotest.(check string) (Printf.sprintf "shard %d root" s) root
        (Repro_crypto.Sha256.to_hex (State.root st));
      Alcotest.(check int) (Printf.sprintf "shard %d keys" s) count (List.length (State.keys st)))
    [
      ("5e4c11f940d4abb56ed3f3c5aedc66729169acc793923fde4aa136ac6ea9b486", 231);
      ("68d4e54389713a2d898053f6f4ee9bf742f300a5f236c4553a2cc1eab211a09a", 266);
      ("9f7caffdd3602c0aaa0e2a00bb1500f9f6bdafdf0b575e9d28756ba0ef19dfa2", 248);
      ("b10d342b5ca2f240f15ab11cc49c61d01d5e53d6abaca2a21290eba4bd001bc6", 255);
    ]

(* SmallBank setup as one interleaved pass over the accounts, checking
   then savings, both written at once. *)
let fund_eagerly states ~keyspace ~initial_balance =
  let shards = Array.length states in
  for i = 0 to keyspace - 1 do
    let acc = "acc" ^ string_of_int i in
    List.iter
      (fun key -> Executor.set_balance states.(Tx.shard_of_key ~shards key) key initial_balance)
      [ Smallbank_cc.checking_key acc; Smallbank_cc.savings_key acc ]
  done

(* Shards are drawn from 0..4 and taken modulo the system's count. *)
type genesis_op =
  | Setup of int
  | Balance of int * string
  | Get of int * string
  | Mem of int * string
  | Set_int of int * string * int
  | Put of int * string * string
  | Delete of int * string
  | Set_lock of int * string * int
  | Clear_lock of int * string
  | Lock_holder of int * string
  | Snapshot of int
  | Root of int
  | Keys of int
  | Equal of int * int
  | Pack of int

let show_genesis_op = function
  | Setup b -> Printf.sprintf "setup %d" b
  | Balance (s, k) -> Printf.sprintf "balance %d %s" s k
  | Get (s, k) -> Printf.sprintf "get %d %s" s k
  | Mem (s, k) -> Printf.sprintf "mem %d %s" s k
  | Set_int (s, k, n) -> Printf.sprintf "set_int %d %s %d" s k n
  | Put (s, k, d) -> Printf.sprintf "put %d %s %S" s k d
  | Delete (s, k) -> Printf.sprintf "delete %d %s" s k
  | Set_lock (s, k, h) -> Printf.sprintf "set_lock %d %s %d" s k h
  | Clear_lock (s, k) -> Printf.sprintf "clear_lock %d %s" s k
  | Lock_holder (s, k) -> Printf.sprintf "lock_holder %d %s" s k
  | Snapshot s -> Printf.sprintf "snapshot %d" s
  | Root s -> Printf.sprintf "root %d" s
  | Keys s -> Printf.sprintf "keys %d" s
  | Equal (a, b) -> Printf.sprintf "equal %d %d" a b
  | Pack s -> Printf.sprintf "pack %d" s

let genesis_op_gen =
  let open QCheck.Gen in
  let shard = int_bound 4 in
  (* Checking, savings and other keys over accounts 0..6 (a keyspace of
     at most 6 leaves some unfunded). *)
  let key =
    map2
      (fun family i ->
        (match family with 0 -> "chk_acc" | 1 -> "sav_acc" | _ -> "k") ^ string_of_int i)
      (int_bound 2) (int_bound 6)
  in
  let tuple = map2 (fun lock k -> if lock = 0 then "L_" ^ k else k) (int_bound 3) key in
  frequency
    [
      (1, map (fun b -> Setup b) (int_range 1 900));
      (3, map2 (fun s k -> Balance (s, k)) shard key);
      (3, map2 (fun s k -> Get (s, k)) shard tuple);
      (1, map2 (fun s k -> Mem (s, k)) shard tuple);
      (3, map3 (fun s k n -> Set_int (s, k, n)) shard key (int_bound 50));
      (2, map3 (fun s k n -> Put (s, k, "d" ^ string_of_int n)) shard tuple (int_bound 9));
      (2, map2 (fun s k -> Delete (s, k)) shard tuple);
      (3, map3 (fun s k h -> Set_lock (s, k, h)) shard key (int_bound 2));
      (2, map2 (fun s k -> Clear_lock (s, k)) shard key);
      (2, map2 (fun s k -> Lock_holder (s, k)) shard key);
      (1, map (fun s -> Snapshot s) shard);
      (1, map (fun s -> Root s) shard);
      (1, map (fun s -> Keys s) shard);
      (1, map2 (fun a b -> Equal (a, b)) shard shard);
      (1, map (fun s -> Pack s) shard);
    ]

let show_value = function
  | None -> "-"
  | Some v -> Printf.sprintf "%s@%d" v.State.data v.State.version

let show_entries entries =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ show_value (Some v)) entries)

(* What one operation returns on [states]; [setup] funds them. *)
let run_genesis_op states ~setup op =
  let on s = states.(s mod Array.length states) in
  match op with
  | Setup b ->
      setup b;
      ""
  | Balance (s, k) -> string_of_int (Executor.balance (on s) k)
  | Get (s, k) -> show_value (State.get (on s) k)
  | Mem (s, k) -> string_of_bool (State.mem (on s) k)
  | Set_int (s, k, n) ->
      State.set_int (on s) k n;
      ""
  | Put (s, k, d) ->
      State.put (on s) k d;
      ""
  | Delete (s, k) ->
      State.delete (on s) k;
      ""
  | Set_lock (s, k, h) ->
      State.set_lock (on s) k h;
      ""
  | Clear_lock (s, k) ->
      State.clear_lock (on s) k;
      ""
  | Lock_holder (s, k) -> Option.fold ~none:"-" ~some:string_of_int (State.lock_holder (on s) k)
  | Snapshot s -> show_entries (State.snapshot (on s))
  | Root s -> Repro_crypto.Sha256.to_hex (State.root (on s))
  | Keys s -> String.concat " " (State.keys (on s))
  | Equal (a, b) -> string_of_bool (State.equal (on a) (on b))
  | Pack s ->
      let module T = Repro_shard.State_transfer in
      let p = T.pack (on s) in
      let root = T.claimed_root p in
      Printf.sprintf "%s %d %s" (Repro_crypto.Sha256.to_hex root) (T.size_bytes p)
        (match T.verify_and_restore p ~expected_root:root with
        | Ok st -> show_entries (State.snapshot st)
        | Error e -> e)

(* The lock-only views, which read without forcing a pending fill. *)
let lock_views states =
  Array.to_list states
  |> List.concat_map (fun st ->
         string_of_int (State.lock_count st)
         :: List.map (fun h -> String.concat "," (State.locked_by st h)) [ 0; 1; 2 ])

(* Savings balances funded on read are indistinguishable from funding
   them with the checking balances: after repeated setups and any mix of
   point reads and writes on checking, savings and other keys, value or
   lock tuple, every reader (whole-state views and transfer packages
   included) answers as on states funded eagerly, and the lock-only
   views agree after every step. *)
let prop_workload_genesis_on_read =
  QCheck.Test.make ~name:"workload genesis on read = eager funding" ~count:200
    (QCheck.make
       ~print:(fun (shards, keyspace, ops) ->
         Printf.sprintf "%d shards, keyspace %d: %s" shards keyspace
           (String.concat "; " (List.map show_genesis_op ops)))
       QCheck.Gen.(triple (int_range 1 5) (int_range 1 6) (list_size (1 -- 30) genesis_op_gen)))
    (fun (shards, keyspace, ops) ->
      let sys = System.create (System.default_config ~shards ~committee_size:1) in
      let wl = Workload.create Workload.Smallbank ~keyspace ~theta:0.5 ~rng:(Rng.create 3L) in
      let deferred = Array.init shards (System.shard_state sys) in
      let eager = Array.init shards (fun _ -> State.create ()) in
      let setup_deferred b = Workload.setup wl sys ~initial_balance:b in
      let setup_eager b = fund_eagerly eager ~keyspace ~initial_balance:b in
      setup_deferred 100;
      setup_eager 100;
      List.for_all
        (fun op ->
          String.equal
            (run_genesis_op deferred ~setup:setup_deferred op)
            (run_genesis_op eager ~setup:setup_eager op)
          && lock_views deferred = lock_views eager)
        ops
      && List.for_all2 State.equal (Array.to_list deferred) (Array.to_list eager))

(* ------------------------------------------------------------------ *)
(* End-to-end with workload driver                                     *)
(* ------------------------------------------------------------------ *)

let test_end_to_end_smallbank_run () =
  let sys = make_system ~shards:2 () in
  let wl = Workload.create Workload.Smallbank ~keyspace:500 ~theta:0.3 ~rng:(Rng.create 4L) in
  Workload.setup wl sys ~initial_balance:1000;
  Workload.start_closed_loop wl sys ~clients:4 ~outstanding:8;
  System.run sys ~until:20.0;
  Alcotest.(check bool) "hundreds of commits" true (System.committed sys > 200);
  Alcotest.(check bool) "throughput positive" true (System.throughput sys ~warmup:5.0 > 0.0);
  Alcotest.(check bool) "latency sane" true (Stats.mean (System.latency_stats sys) < 5.0)

(* Pins the simulated event order of one commit path: a small seeded run
   must process the same number of events, commit the same transactions
   and reach the same 2PC decisions at the same instants.  [tune] picks
   the path (coordinator host, concurrency control, fast lane); [malicious]
   adds that many transactions from a client that goes silent after
   BeginTx, so R's fallback sweep runs.  The With_reference constants were
   recorded before the simulator's hot-path rewrite (unboxed event queue,
   native-int SHA-256, per-transaction placement), the others before the
   commit paths were folded into one leg driver; any change to event
   order, tie breaking or key placement moves at least one of them. *)
let test_event_order_pinned ?(tune = Fun.id) ?(kind = Workload.Smallbank) ?(malicious = 0)
    ?(until = 3.0) (events, committed, decisions, hash) () =
  let sys =
    System.create
      (tune { (System.default_config ~shards:2 ~committee_size:4) with System.seed = 7L })
  in
  let wl = Workload.create kind ~keyspace:200 ~theta:0.6 ~rng:(Rng.create 11L) in
  Workload.setup wl sys ~initial_balance:1000;
  Workload.start_closed_loop wl sys ~clients:4 ~outstanding:8;
  for i = 1 to malicious do
    Repro_sim.Engine.schedule (System.engine sys) ~delay:(0.1 *. float_of_int i) (fun () ->
        System.submit sys ~malicious_client:true (Workload.next_tx wl sys ~client:4))
  done;
  System.run sys ~until;
  let trace =
    System.decision_trace sys
    |> List.map (fun (d : System.decision_event) ->
           Printf.sprintf "%h/%d/%d/%b" d.at d.txid d.shard d.commit)
    |> String.concat ";"
  in
  Alcotest.(check int) "events processed" events
    (Repro_sim.Engine.events_processed (System.engine sys));
  Alcotest.(check int) "committed" committed (System.committed sys);
  Alcotest.(check int) "decisions" decisions (List.length (System.decision_trace sys));
  Alcotest.(check int) "decision trace hash" hash (Det.stable_hash trace)

(* Section 5.3's transition strategies: swapping every mover at once takes
   the system down for the whole fetch window, while B = log2(n) waves keep
   each committee live.  The fetch window follows from the shard state's
   size, so the measured 5-20 s window is kept short enough around the
   transition at 10 s for that outage to show. *)
let test_reshard_batched_beats_swap_all () =
  let run strategy =
    let sys = make_system ~shards:2 () in
    let wl = Workload.create Workload.Smallbank ~keyspace:500 ~theta:0.2 ~rng:(Rng.create 4L) in
    Workload.setup wl sys ~initial_balance:1000;
    Workload.start_closed_loop wl sys ~clients:4 ~outstanding:8;
    (match strategy with
    | None -> ()
    | Some strategy -> System.advance_epoch sys ~at:10.0 ~seed:99L ~epoch:1 ~strategy);
    System.run sys ~until:20.0;
    System.throughput sys ~warmup:5.0
  in
  let baseline = run None in
  let swap_all = run (Some `Swap_all) in
  let batched = run (Some `Batched_log) in
  Alcotest.(check bool) "swap-all hurts" true (swap_all < 0.9 *. baseline);
  Alcotest.(check bool) "batched close to baseline" true (batched > 0.8 *. baseline);
  Alcotest.(check bool) "batched beats swap-all" true (batched > swap_all)

let () =
  Alcotest.run "core"
    [
      ( "coordination",
        [
          Alcotest.test_case "registry roundtrip" `Quick test_registry_roundtrip;
          Alcotest.test_case "registry grows" `Quick test_registry_grows;
          Alcotest.test_case "registry release" `Quick test_registry_release;
          Alcotest.test_case "op cost" `Quick test_op_cost_positive;
          Alcotest.test_case "batch order deterministic" `Quick
            test_batch_order_permutation_determinism;
          QCheck_alcotest.to_alcotest prop_registry_matches_structural_model;
        ] );
      ( "system",
        [
          Alcotest.test_case "single-shard commit" `Quick test_single_shard_commit;
          Alcotest.test_case "single-shard abort" `Quick test_single_shard_abort_on_overdraft;
          Alcotest.test_case "one-member committees commit" `Quick test_one_member_committees_commit;
          Alcotest.test_case "cross-shard commit" `Quick test_cross_shard_commit;
          Alcotest.test_case "cross-shard atomic abort" `Quick test_cross_shard_atomic_abort;
          Alcotest.test_case "money conservation" `Quick test_cross_shard_money_conservation;
          Alcotest.test_case "client-driven commits" `Quick test_client_driven_mode_commits;
          Alcotest.test_case "malicious client + R completes" `Quick
            test_malicious_client_with_reference_still_completes;
          Alcotest.test_case "malicious client w/o R blocks" `Quick
            test_malicious_client_client_driven_blocks;
          Alcotest.test_case "lock conflict" `Quick test_lock_conflict_aborts_one;
          Alcotest.test_case "wait-die reduces aborts" `Quick test_wait_die_reduces_aborts;
          Alcotest.test_case "batched commit + probes + registry" `Quick
            test_batched_commit_probes_and_registry;
          Alcotest.test_case "flattened cross-shard commit" `Quick
            test_flattened_cross_shard_commit;
          Alcotest.test_case "flattened fallback commits" `Quick test_flattened_fallback_commits;
          Alcotest.test_case "malicious client fallback commits" `Quick
            test_malicious_client_fallback_commits;
          Alcotest.test_case "wait-die park timeout aborts" `Quick
            test_wait_die_park_timeout_aborts;
          Alcotest.test_case "duplicate decision leg idempotent" `Quick
            test_duplicate_decision_leg_idempotent;
          Alcotest.test_case "client-driven early abort" `Quick
            test_client_driven_aborts_on_first_not_ok;
          Alcotest.test_case "registry bounded under retries" `Quick
            test_registry_bounded_under_retries;
          Alcotest.test_case "chains validate" `Quick test_chains_validate;
        ] );
      ( "fast lane",
        [
          Alcotest.test_case "mergeable tx rides the lane" `Quick
            test_fastlane_mergeable_commits_via_lane;
          Alcotest.test_case "downgrade on lock conflict" `Quick
            test_fastlane_downgrade_on_lock_conflict;
          Alcotest.test_case "dropped delta leg re-driven" `Quick
            test_fastlane_dropped_delta_leg_retried;
          Alcotest.test_case "duplicate delta leg idempotent" `Quick
            test_fastlane_duplicate_delta_leg_idempotent;
          Alcotest.test_case "mixed tx keeps 2PC" `Quick test_fastlane_mixed_tx_keeps_locked_path;
        ] );
      ( "workload",
        [
          Alcotest.test_case "smallbank setup/gen" `Quick test_workload_smallbank_setup_and_gen;
          Alcotest.test_case "cross fraction = eq 3" `Quick test_workload_cross_fraction_matches_eq3;
          Alcotest.test_case "txids unique" `Quick test_workload_txids_unique;
          QCheck_alcotest.to_alcotest prop_workload_placement_uncached;
          Alcotest.test_case "setup known answers" `Quick test_workload_setup_known_answers;
          QCheck_alcotest.to_alcotest prop_workload_genesis_on_read;
        ] );
      ( "results",
        [
          Alcotest.test_case "json export" `Quick (fun () ->
              let fig =
                Results.figure ~id:"figX" ~caption:"a \"quoted\" caption"
                  [
                    Results.panel ~title:"Panel A" ~x_label:"N" ~columns:[ "s1" ]
                      ~rows:[ (1.0, [ 2.5 ]); (2.0, [ Float.nan ]) ];
                  ]
              in
              let json = Results.to_json ~wall_time_s:1.25 ~jobs:4 fig in
              Alcotest.(check string) "object with metadata and escaped caption"
                ("{\"id\":\"figX\",\"caption\":\"a \\\"quoted\\\" caption\","
                ^ "\"wall_time_s\":1.250,\"jobs\":4,\"panels\":["
                ^ "{\"title\":\"Panel A\",\"x_label\":\"N\",\"columns\":[\"s1\"],"
                ^ "\"rows\":[{\"x\":1,\"values\":[2.5]},{\"x\":2,\"values\":[null]}]}]}\n")
                json;
              let text = Results.text_figure ~id:"t1" ~caption:"c" "line1\nline2" in
              Alcotest.(check string) "text panel escapes newlines"
                "{\"id\":\"t1\",\"caption\":\"c\",\"panels\":[{\"text\":\"line1\\nline2\"}]}\n"
                (Results.to_json text));
        ] );
      ( "formation",
        [
          Alcotest.test_case "beacon seeds assignment" `Quick (fun () ->
              (* Section 5 end to end: agree on rnd over the network, derive
                 committees from it, and check the committee sizes satisfy
                 Eq. 1 at the paper's security level. *)
              let topology = Repro_sim.Topology.gcp 4 in
              let n = 48 in
              let o =
                Repro_shard.Randomness.run ~n ~topology
                  ~delta:(Repro_shard.Randomness.measured_delta ~topology ~n)
                  ~l_bits:(Repro_shard.Randomness.paper_l_bits ~n) ()
              in
              let committees = 4 in
              let a =
                Repro_shard.Assignment.derive ~seed:o.Repro_shard.Randomness.rnd ~epoch:1
                  ~nodes:n ~committees
              in
              Alcotest.(check int) "4 committees" committees
                (Array.length a.Repro_shard.Assignment.committees);
              let sizes =
                Array.to_list (Array.map Array.length a.Repro_shard.Assignment.committees)
              in
              List.iter (fun s -> Alcotest.(check int) "balanced" 12 s) sizes);
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "smallbank run" `Slow test_end_to_end_smallbank_run;
          Alcotest.test_case "event order pinned" `Quick
            (test_event_order_pinned (11185, 314, 520, 37053465258793442));
          Alcotest.test_case "event order pinned, client-driven" `Quick
            (test_event_order_pinned
               ~tune:(fun c -> { c with System.mode = System.Client_driven })
               (9604, 462, 632, 1793926921329430756));
          Alcotest.test_case "event order pinned, flattened" `Quick
            (test_event_order_pinned
               ~tune:(fun c -> { c with System.mode = System.Flattened })
               (9206, 320, 496, 3136408488771634698));
          Alcotest.test_case "event order pinned, wait-die" `Quick
            (test_event_order_pinned
               ~tune:(fun c -> { c with System.concurrency = System.Wait_die })
               (11011, 313, 496, 1581036604589210194));
          Alcotest.test_case "event order pinned, fast lane" `Quick
            (test_event_order_pinned
               ~tune:(fun c -> { c with System.fast_lane = true })
               ~kind:(Workload.Hot_increments { increment_fraction = 0.9 })
               (11390, 936, 1385, 2976988277012664757));
          Alcotest.test_case "event order pinned, malicious clients" `Quick
            (test_event_order_pinned ~malicious:8 ~until:12.0
               (45069, 1285, 2330, 3465399578081301796));
          Alcotest.test_case "tampered snapshot rejected" `Slow (fun () ->
              (* Section 5.3's verify-before-serve rule: a member whose
                 missed slots were pruned from every peer's replay ring
                 must pull a snapshot — and when a Byzantine server doctors
                 it, Merkle re-verification rejects the package and the
                 retry fetches a clean one.  Crash a follower early, let the
                 committee execute past the replay-ring depth, corrupt the
                 next snapshot, and watch both counters move. *)
              let sys = make_system ~shards:2 () in
              let trace = Repro_obs.Trace.create () in
              let ometrics = Repro_obs.Metrics.create () in
              System.set_probe sys (Repro_obs.Probe.make ~trace ~metrics:ometrics);
              let wl =
                Workload.create Workload.Smallbank ~keyspace:500 ~theta:0.2 ~rng:(Rng.create 9L)
              in
              Workload.setup wl sys ~initial_balance:1000;
              Workload.start_closed_loop wl sys ~clients:8 ~outstanding:8;
              System.crash_member sys ~committee:0 ~member:1;
              System.run sys ~until:25.0;
              System.corrupt_next_snapshot sys ~shard:0;
              (* A literal swap: the slot's previous occupant departs with
                 its consensus state; the newcomer holds nothing and must
                 transfer a snapshot. *)
              System.reset_member sys ~committee:0 ~member:1;
              System.recover_member sys ~committee:0 ~member:1;
              System.run sys ~until:40.0;
              let counter name =
                Option.value ~default:0
                  (List.assoc_opt name (Repro_obs.Metrics.counters ometrics))
              in
              Alcotest.(check bool) "doctored package rejected" true
                (counter "ckpt.fetch.snapshot_rejected" >= 1);
              Alcotest.(check bool) "clean retry installed" true
                (counter "ckpt.fetch.snapshots" >= 1);
              (* The rejoined member ends holding a certificate — it is a
                 full committee citizen again, not a permanent straggler. *)
              Alcotest.(check bool) "member 1 rejoined" true
                (List.exists
                   (fun (c, m, seq, _) -> c = 0 && m = 1 && seq >= 16)
                   (System.committee_checkpoints sys)));
          Alcotest.test_case "hundred-epoch churn soak" `Slow (fun () ->
              (* Hundreds of committee reconfigurations under continuous
                 load: every epoch literally swaps members out through
                 reset + snapshot/replay rejoin.  Across all of it the
                 committees must never certify divergent roots, observers
                 must converge, and the system must keep committing. *)
              let sys = make_system ~shards:2 () in
              let wl =
                Workload.create Workload.Smallbank ~keyspace:500 ~theta:0.2 ~rng:(Rng.create 17L)
              in
              Workload.setup wl sys ~initial_balance:1000;
              Workload.start_closed_loop wl sys ~clients:4 ~outstanding:8;
              for e = 1 to 100 do
                System.advance_epoch sys
                  ~at:(2.0 +. (0.5 *. float_of_int e))
                  ~seed:(Int64.of_int (1000 + e))
                  ~epoch:e ~strategy:`Batched_log
              done;
              System.run sys ~until:62.0;
              let by_slot = Hashtbl.create 64 in
              List.iter
                (fun (c, _m, seq, root) ->
                  let key = (c, seq) in
                  let roots = Option.value (Hashtbl.find_opt by_slot key) ~default:[] in
                  if not (List.mem root roots) then Hashtbl.replace by_slot key (root :: roots))
                (System.committee_checkpoints sys);
              Hashtbl.iter
                (fun (c, seq) roots ->
                  Alcotest.(check int)
                    (Printf.sprintf "committee %d certs for seq %d agree" c seq)
                    1 (List.length roots))
                by_slot;
              List.iter
                (fun (c, lag) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "committee %d observer converged (lag %d)" c lag)
                    true (lag <= 16))
                (System.observer_lag sys);
              Alcotest.(check bool) "still committing through the churn" true
                (System.committed sys > 200);
              (* Regression tripwire for the swap-collapse pathology: before
                 the view-hint + no-op-fill fixes a single swap burned
                 hundreds of view changes and never recovered. *)
              Alcotest.(check bool) "view changes stay bounded" true
                (System.view_changes sys < 2000));
          Alcotest.test_case "reshard strategies" `Slow test_reshard_batched_beats_swap_all;
          Alcotest.test_case "advance_epoch pipeline" `Slow (fun () ->
              (* The full Section 5 pipeline keeps the system live when the
                 transition is batched. *)
              let sys = make_system ~shards:2 () in
              let wl =
                Workload.create Workload.Smallbank ~keyspace:500 ~theta:0.2 ~rng:(Rng.create 4L)
              in
              Workload.setup wl sys ~initial_balance:1000;
              Workload.start_closed_loop wl sys ~clients:4 ~outstanding:8;
              System.advance_epoch sys ~at:8.0 ~seed:99L ~epoch:2 ~strategy:`Batched_log;
              System.run sys ~until:25.0;
              Alcotest.(check bool) "throughput survives the epoch change" true
                (System.throughput sys ~warmup:4.0 > 100.0);
              (* The driver is still running, so some locks are legitimately
                 held by in-flight transactions; the conservation checks of
                 the other tests cover lock hygiene. *)
              Alcotest.(check bool) "hundreds of commits" true (System.committed sys > 500));
        ] );
    ]

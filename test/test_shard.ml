open Repro_shard

let check_float_at eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)
(* ------------------------------------------------------------------ *)

let test_sizing_tolerance () =
  Alcotest.(check int) "PBFT n=100" 33 (Sizing.tolerance Sizing.Pbft_third ~n:100);
  Alcotest.(check int) "AHL n=79" 39 (Sizing.tolerance Sizing.Ahl_half ~n:79)

let test_sizing_paper_committee_sizes () =
  (* Section 5.2: 25% adversary, 2^-20 — AHL+ needs ~80, PBFT needs 600+.
     Committee sizes grow mildly with the population; at N=2000 the solver
     lands at 75 and 481, and both keep growing toward the paper's numbers
     for larger N. *)
  let ours = Sizing.min_committee_size ~total:2000 ~fraction:0.25 ~rule:Sizing.Ahl_half ~security_bits:20 in
  let omni = Sizing.min_committee_size ~total:2000 ~fraction:0.25 ~rule:Sizing.Pbft_third ~security_bits:20 in
  Alcotest.(check bool) "ours around 80" true (ours >= 60 && ours <= 90);
  Alcotest.(check bool) "PBFT several hundred" true (omni >= 400);
  Alcotest.(check bool) "order of magnitude gap" true (omni > 5 * ours)

let test_sizing_monotone_in_fraction () =
  let size f =
    Sizing.min_committee_size ~total:1000 ~fraction:f ~rule:Sizing.Ahl_half ~security_bits:20
  in
  Alcotest.(check bool) "harder adversary, bigger committee" true
    (size 0.05 < size 0.15 && size 0.15 < size 0.25)

let test_sizing_faulty_probability_bounds () =
  let p = Sizing.pr_faulty_committee ~total:400 ~byzantine:100 ~n:80 Sizing.Ahl_half in
  Alcotest.(check bool) "is a probability" true (p >= 0.0 && p <= 1.0);
  let log2p = Sizing.log2_pr_faulty ~total:2000 ~byzantine:500 ~n:80 Sizing.Ahl_half in
  Alcotest.(check bool) "2^-20 reached near n=80" true (log2p <= -20.0)

let test_sizing_max_shards () =
  let k, n = Sizing.max_shards ~total:972 ~fraction:0.125 ~rule:Sizing.Ahl_half ~security_bits:20 in
  Alcotest.(check bool) "committee around 27" true (n >= 20 && n <= 40);
  Alcotest.(check int) "k = total / n" (972 / n) k

let test_sizing_epoch_transition_paper_example () =
  (* Section 5.3: n = 80, f = (n-1)/2, k = 10, B = log n = 6 gives
     Pr(faulty) ~ 1e-5 for a 25% adversary over N = 800ish.  We check the
     order of magnitude at N = 2000 where n = 80 is the safe size. *)
  let p =
    Sizing.pr_epoch_transition_faulty ~total:2000 ~byzantine:500 ~n:80 ~k:10 ~batch:6
      Sizing.Ahl_half
  in
  Alcotest.(check bool) "small but nonzero" true (p > 0.0 && p < 1e-3)

let test_sizing_swap_batch () =
  Alcotest.(check int) "log2 9" 3 (Sizing.swap_batch_size ~n:9);
  Alcotest.(check int) "log2 80" 6 (Sizing.swap_batch_size ~n:80)

let test_cross_shard_probability_normalizes () =
  let shards = 10 and args = 4 in
  let total = ref 0.0 in
  for x = 1 to args do
    total := !total +. Sizing.cross_shard_probability ~shards ~args ~touches:x
  done;
  check_float_at 1e-9 "sums to 1" 1.0 !total

let test_cross_shard_probability_closed_form_d2 () =
  (* d = 2: P(same shard) = 1/k. *)
  check_float_at 1e-12 "1/k" 0.1 (Sizing.cross_shard_probability ~shards:10 ~args:2 ~touches:1);
  check_float_at 1e-12 "1 - 1/k" 0.9 (Sizing.cross_shard_probability ~shards:10 ~args:2 ~touches:2)

let test_cross_shard_fraction_majority () =
  (* Appendix B's point: most transactions are distributed. *)
  let f = Sizing.expected_cross_shard_fraction ~shards:10 ~args:3 in
  Alcotest.(check bool) "vast majority cross-shard" true (f > 0.9)

(* ------------------------------------------------------------------ *)
(* Assignment                                                          *)
(* ------------------------------------------------------------------ *)

let test_assignment_partition () =
  let a = Assignment.derive ~seed:1L ~epoch:0 ~nodes:100 ~committees:7 in
  let seen = Array.make 100 false in
  Array.iter (Array.iter (fun node -> seen.(node) <- true)) a.Assignment.committees;
  Alcotest.(check bool) "every node assigned once" true (Array.for_all Fun.id seen);
  Array.iter
    (fun members ->
      Alcotest.(check bool) "balanced" true
        (Array.length members >= 14 && Array.length members <= 15))
    a.Assignment.committees

let test_assignment_deterministic () =
  let a = Assignment.derive ~seed:9L ~epoch:3 ~nodes:50 ~committees:5 in
  let b = Assignment.derive ~seed:9L ~epoch:3 ~nodes:50 ~committees:5 in
  Alcotest.(check bool) "same seed+epoch same assignment" true
    (a.Assignment.committees = b.Assignment.committees)

let test_assignment_epochs_differ () =
  let a = Assignment.derive ~seed:9L ~epoch:1 ~nodes:50 ~committees:5 in
  let b = Assignment.derive ~seed:9L ~epoch:2 ~nodes:50 ~committees:5 in
  Alcotest.(check bool) "reshuffled" true (a.Assignment.committees <> b.Assignment.committees);
  Alcotest.(check bool) "some nodes moved" true
    (List.length (Assignment.transitioning ~from_:a ~to_:b) > 0)

let test_assignment_committee_of () =
  let a = Assignment.derive ~seed:2L ~epoch:0 ~nodes:30 ~committees:3 in
  for node = 0 to 29 do
    let c = Assignment.committee_of a node in
    Alcotest.(check bool) "member listed" true
      (Array.exists (fun m -> m = node) a.Assignment.committees.(c))
  done

let test_assignment_transition_plan_bound () =
  let a = Assignment.derive ~seed:2L ~epoch:0 ~nodes:60 ~committees:4 in
  let b = Assignment.derive ~seed:2L ~epoch:1 ~nodes:60 ~committees:4 in
  let batch = 3 in
  let waves = Assignment.transition_plan ~from_:a ~to_:b ~batch in
  List.iter
    (fun wave ->
      let load = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let bump c =
            Hashtbl.replace load c (1 + Option.value (Hashtbl.find_opt load c) ~default:0)
          in
          bump s.Assignment.from_committee;
          bump s.Assignment.to_committee)
        wave;
      Hashtbl.iter
        (fun _ count -> Alcotest.(check bool) "per-committee bound" true (count <= batch))
        load)
    waves;
  let total = List.fold_left (fun acc w -> acc + List.length w) 0 waves in
  Alcotest.(check int) "plan covers all movers" (List.length (Assignment.transitioning ~from_:a ~to_:b)) total

(* ------------------------------------------------------------------ *)
(* Randomness                                                          *)
(* ------------------------------------------------------------------ *)

let lan = Repro_sim.Topology.lan ()

let test_beacon_protocol_agreement () =
  let o = Randomness.run ~n:16 ~topology:lan ~delta:2.0 ~l_bits:2 () in
  Alcotest.(check bool) "at least one round" true (o.Randomness.rounds >= 1);
  Alcotest.(check bool) "certificates bounded by n" true
    (o.Randomness.certificates >= 1 && o.Randomness.certificates <= 16)

let test_beacon_protocol_deterministic () =
  let a = Randomness.run ~seed:3L ~n:16 ~topology:lan ~delta:2.0 ~l_bits:2 () in
  let b = Randomness.run ~seed:3L ~n:16 ~topology:lan ~delta:2.0 ~l_bits:2 () in
  Alcotest.(check int64) "same seed same rnd" a.Randomness.rnd b.Randomness.rnd

let test_beacon_protocol_elapsed_multiple_of_delta () =
  let o = Randomness.run ~n:16 ~topology:lan ~delta:2.0 ~l_bits:0 () in
  check_float_at 1e-6 "locks exactly at round-end" 2.0 o.Randomness.elapsed

let test_beacon_withholding_cannot_block () =
  (* Byzantine nodes suppressing their certificates cannot stop agreement
     as long as one honest node is lucky; with l = 0 everyone is. *)
  let o = Randomness.run ~n:16 ~topology:lan ~delta:2.0 ~l_bits:0 ~byzantine_withhold:4 () in
  Alcotest.(check int) "one round suffices" 1 o.Randomness.rounds

let test_beacon_withholding_changes_but_does_not_choose () =
  (* Withholding may change the agreed value (fewer candidates) but the
     attacker cannot pick it: the honest minimum is still random. *)
  let base = Randomness.run ~seed:3L ~n:16 ~topology:lan ~delta:2.0 ~l_bits:0 () in
  let attacked =
    Randomness.run ~seed:3L ~n:16 ~topology:lan ~delta:2.0 ~l_bits:0 ~byzantine_withhold:8 ()
  in
  Alcotest.(check bool) "agreement still reached" true (attacked.Randomness.rounds >= 1);
  ignore base

let test_beacon_paper_l_bits () =
  (* l = log2(N) - log2(log2(N)); at N = 512: 9 - 3.17 -> 6. *)
  Alcotest.(check int) "N=512" 6 (Randomness.paper_l_bits ~n:512)

let test_randhound_scales_quadratically_in_group () =
  let fast = Randomness.randhound_runtime ~n:128 ~group:4 ~topology:lan in
  let slow = Randomness.randhound_runtime ~n:128 ~group:16 ~topology:lan in
  Alcotest.(check bool) "c^2 growth" true (slow > 8.0 *. fast)

(* ------------------------------------------------------------------ *)
(* Reference committee state machine                                   *)
(* ------------------------------------------------------------------ *)

let test_reference_commit_path () =
  let r = Reference.create () in
  Alcotest.(check bool) "begin" true
    (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0; 1 ] }) = Reference.Now_started);
  Alcotest.(check bool) "first ok" true
    (Reference.step r ~txid:1 (Reference.Prepare_ok { shard = 0 }) = Reference.No_change);
  Alcotest.(check bool) "second ok commits" true
    (Reference.step r ~txid:1 (Reference.Prepare_ok { shard = 1 }) = Reference.Now_committed);
  Alcotest.(check bool) "state committed" true
    (Reference.state_of r ~txid:1 = Some Reference.Committed)

let test_reference_abort_on_nok () =
  let r = Reference.create () in
  ignore (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0; 1; 2 ] }));
  ignore (Reference.step r ~txid:1 (Reference.Prepare_ok { shard = 0 }));
  Alcotest.(check bool) "nok aborts immediately" true
    (Reference.step r ~txid:1 (Reference.Prepare_not_ok { shard = 1 }) = Reference.Now_aborted)

let test_reference_duplicate_votes_ignored () =
  let r = Reference.create () in
  ignore (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0; 1 ] }));
  ignore (Reference.step r ~txid:1 (Reference.Prepare_ok { shard = 0 }));
  Alcotest.(check bool) "same shard again: no double count" true
    (Reference.step r ~txid:1 (Reference.Prepare_ok { shard = 0 }) = Reference.No_change);
  Alcotest.(check bool) "still preparing" true
    (match Reference.state_of r ~txid:1 with Some (Reference.Preparing 1) -> true | _ -> false)

let test_reference_votes_before_begin_ignored () =
  let r = Reference.create () in
  Alcotest.(check bool) "vote for unknown tx" true
    (Reference.step r ~txid:9 (Reference.Prepare_ok { shard = 0 }) = Reference.No_change)

let test_reference_votes_after_decision_ignored () =
  let r = Reference.create () in
  ignore (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0 ] }));
  ignore (Reference.step r ~txid:1 (Reference.Prepare_ok { shard = 0 }));
  Alcotest.(check bool) "late vote" true
    (Reference.step r ~txid:1 (Reference.Prepare_not_ok { shard = 1 }) = Reference.No_change);
  Alcotest.(check bool) "still committed" true
    (Reference.state_of r ~txid:1 = Some Reference.Committed)

let test_reference_client_abort () =
  let r = Reference.create () in
  ignore (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0; 1 ] }));
  Alcotest.(check bool) "client abort" true
    (Reference.step r ~txid:1 Reference.Client_abort = Reference.Now_aborted);
  Alcotest.(check bool) "abort after decision is no-op" true
    (Reference.step r ~txid:1 Reference.Client_abort = Reference.No_change)

let test_reference_duplicate_begin_ignored () =
  let r = Reference.create () in
  ignore (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0; 1 ] }));
  Alcotest.(check bool) "re-begin is no-op" true
    (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0; 1; 2; 3; 4 ] }) = Reference.No_change)

let test_reference_stats () =
  let r = Reference.create () in
  ignore (Reference.step r ~txid:1 (Reference.Begin { participants = [ 0 ] }));
  ignore (Reference.step r ~txid:2 (Reference.Begin { participants = [ 0 ] }));
  ignore (Reference.step r ~txid:1 (Reference.Prepare_ok { shard = 0 }));
  ignore (Reference.step r ~txid:2 (Reference.Prepare_not_ok { shard = 0 }));
  ignore (Reference.step r ~txid:3 (Reference.Begin { participants = [ 0; 1 ] }));
  Alcotest.(check (triple int int int)) "(inflight, committed, aborted)" (1, 1, 1)
    (Reference.stats r)

(* One batched slot applying a mixed bag of transactions must return the
   same per-step decisions the sequential path would. *)
let test_reference_step_batch_mixed () =
  let r = Reference.create () in
  let steps =
    [
      (1, Reference.Begin { participants = [ 0; 1 ] });
      (1, Reference.Prepare_ok { shard = 0 });
      (1, Reference.Prepare_ok { shard = 1 });
      (2, Reference.Begin { participants = [ 0; 1 ] });
      (2, Reference.Prepare_not_ok { shard = 1 });
      (3, Reference.Begin { participants = [ 0; 1; 2 ] });
    ]
  in
  let out = Reference.step_batch r steps in
  let expect =
    [
      (1, Reference.Now_started);
      (1, Reference.No_change);
      (1, Reference.Now_committed);
      (2, Reference.Now_started);
      (2, Reference.Now_aborted);
      (3, Reference.Now_started);
    ]
  in
  Alcotest.(check bool) "mixed batch decisions" true (out = expect);
  Alcotest.(check bool) "tx1 committed" true (Reference.state_of r ~txid:1 = Some Reference.Committed);
  Alcotest.(check bool) "tx2 aborted" true (Reference.state_of r ~txid:2 = Some Reference.Aborted)

(* Replaying the identical batch (a duplicated carrier leg) must be a
   complete no-op: every step answers No_change and no state moves. *)
let test_reference_step_batch_duplicate_idempotent () =
  let r = Reference.create () in
  let steps =
    [
      (1, Reference.Begin { participants = [ 0; 1 ] });
      (1, Reference.Prepare_ok { shard = 0 });
      (1, Reference.Prepare_ok { shard = 1 });
      (2, Reference.Begin { participants = [ 0; 1 ] });
      (2, Reference.Prepare_not_ok { shard = 0 });
    ]
  in
  ignore (Reference.step_batch r steps);
  let again = Reference.step_batch r steps in
  Alcotest.(check bool) "all no-ops on replay" true
    (List.for_all (fun (_, d) -> d = Reference.No_change) again);
  Alcotest.(check bool) "tx1 still committed" true
    (Reference.state_of r ~txid:1 = Some Reference.Committed);
  Alcotest.(check bool) "tx2 still aborted" true
    (Reference.state_of r ~txid:2 = Some Reference.Aborted)

(* Pipelining can deliver a participant's vote before the Begin it answers;
   the machine buffers it and replays it at Begin, so the decision does not
   depend on leg arrival order. *)
let test_reference_early_votes_replayed_on_begin () =
  let r = Reference.create () in
  Alcotest.(check bool) "early vote buffers" true
    (Reference.step r ~txid:5 (Reference.Prepare_ok { shard = 1 }) = Reference.No_change);
  Alcotest.(check bool) "second early vote same tx" true
    (Reference.step r ~txid:5 (Reference.Prepare_ok { shard = 0 }) = Reference.No_change);
  Alcotest.(check int) "one tx buffered" 1 (Reference.early_votes r);
  Alcotest.(check bool) "begin replays votes straight to commit" true
    (Reference.step r ~txid:5 (Reference.Begin { participants = [ 0; 1 ] })
    = Reference.Now_committed);
  Alcotest.(check int) "buffer drained" 0 (Reference.early_votes r)

(* ------------------------------------------------------------------ *)
(* OmniLedger baseline                                                 *)
(* ------------------------------------------------------------------ *)

(* OmniLedger's client-driven atomic commit (Section 6.1, Figure 3b) is
   [System]'s [Client_driven] mode: the client collects the votes and
   decides, so a client that vanishes after the locks are taken leaves
   them dangling. *)
module System = Repro_core.System
module Executor = Repro_ledger.Executor
module Tx = Repro_ledger.Tx

let omni_system () =
  System.create
    { (System.default_config ~shards:2 ~committee_size:3) with System.mode = System.Client_driven }

(* One account on each shard, the payer funded with 100. *)
let omni_accounts sys =
  let shards = System.shards sys in
  let key_in shard =
    let rec find i =
      let k = Printf.sprintf "acct%d" i in
      if Tx.shard_of_key ~shards k = shard then k else find (i + 1)
    in
    find 0
  in
  let payer = key_in 0 and payee = key_in 1 in
  Executor.set_balance (System.shard_state sys 0) payer 100;
  (payer, payee)

let omni_payment ~txid ~payer ~payee amount =
  Tx.make ~txid [ Tx.Debit { account = payer; amount }; Tx.Credit { account = payee; amount } ]

let test_omniledger_honest_commit () =
  let sys = omni_system () in
  let payer, payee = omni_accounts sys in
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o) (omni_payment ~txid:1 ~payer ~payee 30);
  System.run sys ~until:60.0;
  Alcotest.(check bool) "committed" true (!outcome = Some System.Committed);
  Alcotest.(check int) "no dangling locks" 0 (System.stuck_locks sys);
  Alcotest.(check int) "payee credited" 30 (Executor.balance (System.shard_state sys 1) payee)

let test_omniledger_malicious_client_blocks_forever () =
  (* The Section 6.1 liveness failure. *)
  let sys = omni_system () in
  let payer, payee = omni_accounts sys in
  System.submit sys ~malicious_client:true (omni_payment ~txid:1 ~payer ~payee 30);
  System.run sys ~until:60.0;
  Alcotest.(check bool) "inputs locked forever" true (System.stuck_locks sys > 0);
  (* A later honest payment from the same account is blocked. *)
  let outcome = ref None in
  System.submit sys ~on_done:(fun o -> outcome := Some o) (omni_payment ~txid:2 ~payer ~payee 10);
  System.run sys ~until:120.0;
  Alcotest.(check bool) "stale lock blocks the payer" false (!outcome = Some System.Committed)

(* ------------------------------------------------------------------ *)
(* RapidChain baseline                                                 *)
(* ------------------------------------------------------------------ *)

let test_rapidchain_happy_path () =
  let r = Rapidchain.create ~shards:3 in
  let c1 = Rapidchain.mint r ~shard:0 ~owner:"alice" ~amount:5 in
  let c2 = Rapidchain.mint r ~shard:1 ~owner:"alice" ~amount:7 in
  let out =
    Rapidchain.cross_shard_transfer r
      ~inputs:[ (0, c1.Repro_ledger.Utxo.id); (1, c2.Repro_ledger.Utxo.id) ]
      ~output_shard:2 ~owner:"bob"
  in
  Alcotest.(check bool) "committed" true out.Rapidchain.committed;
  Alcotest.(check int) "bob funded in S3" 12
    (Repro_ledger.Utxo.balance (Rapidchain.utxo_of_shard r 2) "bob")

let test_rapidchain_partial_failure_no_rollback () =
  (* One input is already spent: the other leg still migrates and is NOT
     rolled back — the Section 6.1 atomicity gap. *)
  let r = Rapidchain.create ~shards:3 in
  let c1 = Rapidchain.mint r ~shard:0 ~owner:"alice" ~amount:5 in
  let c2 = Rapidchain.mint r ~shard:1 ~owner:"alice" ~amount:7 in
  (* Spend c2 first so its leg fails. *)
  ignore
    (Repro_ledger.Utxo.apply (Rapidchain.utxo_of_shard r 1)
       { Repro_ledger.Utxo.inputs = [ c2.Repro_ledger.Utxo.id ]; outputs = [ ("eve", 7) ] });
  let out =
    Rapidchain.cross_shard_transfer r
      ~inputs:[ (0, c1.Repro_ledger.Utxo.id); (1, c2.Repro_ledger.Utxo.id) ]
      ~output_shard:2 ~owner:"bob"
  in
  Alcotest.(check bool) "not committed" false out.Rapidchain.committed;
  Alcotest.(check int) "one leftover migrated coin" 1 (List.length out.Rapidchain.migrated_leftovers);
  Alcotest.(check int) "original input gone from S1" 0
    (Repro_ledger.Utxo.balance (Rapidchain.utxo_of_shard r 0) "alice")

let test_rapidchain_account_model_violation () =
  (* Figure 4: tx1 = <acc1 + acc3> -> <acc2>; acc3's debit fails, acc1 is
     already debited and stays debited. *)
  let states = Array.init 2 (fun _ -> Repro_ledger.State.create ()) in
  Repro_ledger.Executor.set_balance states.(0) "acc1" 100;
  Repro_ledger.Executor.set_balance states.(1) "acc3" 5;
  match
    Rapidchain.account_transfer states
      ~debits:[ (0, "acc1", 50); (1, "acc3", 50) ]
      ~credit:(0, "acc2", 100)
  with
  | `Partial dangling ->
      Alcotest.(check (list string)) "acc1 debited without rollback" [ "acc1" ] dangling;
      Alcotest.(check int) "money vanished from acc1" 50
        (Repro_ledger.Executor.balance states.(0) "acc1");
      Alcotest.(check int) "acc2 never credited" 0
        (Repro_ledger.Executor.balance states.(0) "acc2")
  | `Committed -> Alcotest.fail "must not commit"

let test_rapidchain_isolation_violation () =
  (* tx2 = <acc3> -> <acc4> interleaves with tx1 and observes (and
     consumes) the balance a partially-executed tx1 depends on. *)
  let states = Array.init 2 (fun _ -> Repro_ledger.State.create ()) in
  Repro_ledger.Executor.set_balance states.(0) "acc1" 100;
  Repro_ledger.Executor.set_balance states.(1) "acc3" 60;
  (* tx2 runs first and drains acc3. *)
  (match
     Rapidchain.account_transfer states ~debits:[ (1, "acc3", 60) ] ~credit:(1, "acc4", 60)
   with
  | `Committed -> ()
  | `Partial _ -> Alcotest.fail "tx2 should commit");
  (* tx1 now fails on acc3 but has already debited acc1. *)
  match
    Rapidchain.account_transfer states
      ~debits:[ (0, "acc1", 50); (1, "acc3", 50) ]
      ~credit:(0, "acc2", 100)
  with
  | `Partial _ ->
      Alcotest.(check int) "tx1 partially applied" 50
        (Repro_ledger.Executor.balance states.(0) "acc1")
  | `Committed -> Alcotest.fail "tx1 cannot commit"

(* ------------------------------------------------------------------ *)
(* State transfer                                                      *)
(* ------------------------------------------------------------------ *)

let test_state_transfer_roundtrip () =
  let open Repro_ledger in
  let s = State.create () in
  State.put s "acc1" "100";
  State.put s "acc2" "50";
  let pkg = State_transfer.pack s in
  match State_transfer.verify_and_restore pkg ~expected_root:(State.root s) with
  | Ok restored -> Alcotest.(check bool) "states equal" true (State.equal s restored)
  | Error e -> Alcotest.fail e

let test_state_transfer_rejects_tampered () =
  let open Repro_ledger in
  let s = State.create () in
  State.put s "acc1" "100";
  let pkg = State_transfer.tamper (State_transfer.pack s) ~key:"acc1" ~value:"1000000" in
  match State_transfer.verify_and_restore pkg ~expected_root:(State.root s) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "doctored snapshot accepted"

let test_state_transfer_rejects_wrong_root () =
  let open Repro_ledger in
  let s = State.create () in
  State.put s "acc1" "100";
  let other = State.create () in
  State.put other "acc1" "999";
  (* Internally consistent package, but not the committee's state. *)
  let pkg = State_transfer.pack other in
  match State_transfer.verify_and_restore pkg ~expected_root:(State.root s) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign snapshot accepted"

let test_state_transfer_time_scales () =
  let open Repro_ledger in
  let small = State.create () in
  State.put small "a" "1";
  let big = State.create () in
  for i = 0 to 999 do
    State.put big (Printf.sprintf "key%04d" i) "some-longer-value"
  done;
  let topo = Repro_sim.Topology.lan () in
  Alcotest.(check bool) "bigger states take longer" true
    (State_transfer.transfer_time topo (State_transfer.pack big)
    > State_transfer.transfer_time topo (State_transfer.pack small))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_assignment_partition_always =
  QCheck.Test.make ~name:"assignment is always a partition" ~count:100
    QCheck.(triple small_int (int_range 2 200) (int_range 1 10))
    (fun (seed, nodes, committees) ->
      let committees = Stdlib.min committees nodes in
      let a =
        Assignment.derive ~seed:(Int64.of_int seed) ~epoch:0 ~nodes ~committees
      in
      let seen = Array.make nodes 0 in
      Array.iter (Array.iter (fun node -> seen.(node) <- seen.(node) + 1)) a.Assignment.committees;
      Array.for_all (fun c -> c = 1) seen)

let prop_reference_never_commits_after_nok =
  QCheck.Test.make ~name:"reference: a NotOK vote is never followed by Committed" ~count:200
    QCheck.(pair (int_range 1 5) (list (pair (int_bound 5) bool)))
    (fun (participants, votes) ->
      let participants = Stdlib.max 1 participants in
      let shard_list = List.init participants Fun.id in
      let r = Reference.create () in
      ignore (Reference.step r ~txid:1 (Reference.Begin { participants = shard_list }));
      (* Each shard's quorum produces exactly one answer; only a shard's
         first vote is meaningful. *)
      let first_votes = Hashtbl.create 8 in
      let saw_nok = ref false in
      List.iter
        (fun (shard, ok) ->
          if shard < participants && not (Hashtbl.mem first_votes shard) then begin
            Hashtbl.replace first_votes shard ok;
            if not ok then saw_nok := true
          end;
          ignore
            (Reference.step r ~txid:1
               (if ok then Reference.Prepare_ok { shard } else Reference.Prepare_not_ok { shard })))
        votes;
      match Reference.state_of r ~txid:1 with
      | Some Reference.Committed -> not !saw_nok
      | _ -> true)

let prop_cross_shard_prob_distribution =
  QCheck.Test.make ~name:"eq 3 is a probability distribution" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 30))
    (fun (args, shards) ->
      let total = ref 0.0 in
      for x = 1 to args do
        let p = Sizing.cross_shard_probability ~shards ~args ~touches:x in
        if p < -1e-12 || p > 1.0 +. 1e-9 then total := nan;
        total := !total +. p
      done;
      Float.abs (!total -. 1.0) < 1e-6)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_assignment_partition_always;
      prop_reference_never_commits_after_nok;
      prop_cross_shard_prob_distribution;
    ]

let () =
  Alcotest.run "shard"
    [
      ( "sizing",
        [
          Alcotest.test_case "tolerance" `Quick test_sizing_tolerance;
          Alcotest.test_case "paper committee sizes" `Quick test_sizing_paper_committee_sizes;
          Alcotest.test_case "monotone in fraction" `Quick test_sizing_monotone_in_fraction;
          Alcotest.test_case "probability bounds" `Quick test_sizing_faulty_probability_bounds;
          Alcotest.test_case "max shards" `Quick test_sizing_max_shards;
          Alcotest.test_case "epoch transition (eq 2)" `Quick test_sizing_epoch_transition_paper_example;
          Alcotest.test_case "swap batch B" `Quick test_sizing_swap_batch;
          Alcotest.test_case "eq 3 normalizes" `Quick test_cross_shard_probability_normalizes;
          Alcotest.test_case "eq 3 closed form d=2" `Quick test_cross_shard_probability_closed_form_d2;
          Alcotest.test_case "cross-shard majority" `Quick test_cross_shard_fraction_majority;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "partition" `Quick test_assignment_partition;
          Alcotest.test_case "deterministic" `Quick test_assignment_deterministic;
          Alcotest.test_case "epochs differ" `Quick test_assignment_epochs_differ;
          Alcotest.test_case "committee_of" `Quick test_assignment_committee_of;
          Alcotest.test_case "transition plan bound" `Quick test_assignment_transition_plan_bound;
        ] );
      ( "randomness",
        [
          Alcotest.test_case "agreement" `Quick test_beacon_protocol_agreement;
          Alcotest.test_case "deterministic" `Quick test_beacon_protocol_deterministic;
          Alcotest.test_case "locks at delta" `Quick test_beacon_protocol_elapsed_multiple_of_delta;
          Alcotest.test_case "withholding cannot block" `Quick test_beacon_withholding_cannot_block;
          Alcotest.test_case "withholding cannot choose" `Quick
            test_beacon_withholding_changes_but_does_not_choose;
          Alcotest.test_case "paper l bits" `Quick test_beacon_paper_l_bits;
          Alcotest.test_case "randhound c^2" `Quick test_randhound_scales_quadratically_in_group;
        ] );
      ( "reference",
        [
          Alcotest.test_case "commit path" `Quick test_reference_commit_path;
          Alcotest.test_case "abort on NOK" `Quick test_reference_abort_on_nok;
          Alcotest.test_case "duplicate votes" `Quick test_reference_duplicate_votes_ignored;
          Alcotest.test_case "votes before begin" `Quick test_reference_votes_before_begin_ignored;
          Alcotest.test_case "votes after decision" `Quick test_reference_votes_after_decision_ignored;
          Alcotest.test_case "client abort" `Quick test_reference_client_abort;
          Alcotest.test_case "duplicate begin" `Quick test_reference_duplicate_begin_ignored;
          Alcotest.test_case "stats" `Quick test_reference_stats;
          Alcotest.test_case "step_batch mixed" `Quick test_reference_step_batch_mixed;
          Alcotest.test_case "step_batch idempotent" `Quick
            test_reference_step_batch_duplicate_idempotent;
          Alcotest.test_case "early votes replayed" `Quick
            test_reference_early_votes_replayed_on_begin;
        ] );
      ( "state_transfer",
        [
          Alcotest.test_case "roundtrip" `Quick test_state_transfer_roundtrip;
          Alcotest.test_case "rejects tampered" `Quick test_state_transfer_rejects_tampered;
          Alcotest.test_case "rejects wrong root" `Quick test_state_transfer_rejects_wrong_root;
          Alcotest.test_case "transfer time scales" `Quick test_state_transfer_time_scales;
        ] );
      ( "omniledger",
        [
          Alcotest.test_case "honest commit" `Quick test_omniledger_honest_commit;
          Alcotest.test_case "malicious client blocks" `Quick
            test_omniledger_malicious_client_blocks_forever;
        ] );
      ( "rapidchain",
        [
          Alcotest.test_case "happy path" `Quick test_rapidchain_happy_path;
          Alcotest.test_case "partial failure" `Quick test_rapidchain_partial_failure_no_rollback;
          Alcotest.test_case "account atomicity violation" `Quick
            test_rapidchain_account_model_violation;
          Alcotest.test_case "isolation violation" `Quick test_rapidchain_isolation_violation;
        ] );
      ("properties", qsuite);
    ]

open Repro_util
open Repro_crypto
open Repro_sgx

(* A fresh world per test: keystore + clock + an enclave factory. *)
type world = {
  keystore : Keys.keystore;
  mutable clock : float;
  charged : float ref;
}

let make_world () =
  { keystore = Keys.create_keystore (Rng.create 77L); clock = 0.0; charged = ref 0.0 }

let make_enclave ?(id = 0) ?(measurement = "test-enclave") ?(costs = Cost_model.default) w =
  Enclave.create ~keystore:w.keystore ~id ~measurement ~rng:(Rng.create 5L) ~costs
    ~charge:(fun c -> w.charged := !(w.charged) +. c)
    ~now:(fun () -> w.clock)

(* ------------------------------------------------------------------ *)
(* Enclave                                                             *)
(* ------------------------------------------------------------------ *)

let test_enclave_sign_verify () =
  let w = make_world () in
  let e = make_enclave w in
  let s = Enclave.sign e ~msg_tag:99 in
  Alcotest.(check bool) "verifies" true (Enclave.verify e s ~msg_tag:99);
  Alcotest.(check bool) "wrong tag fails" false (Enclave.verify e s ~msg_tag:100)

let test_enclave_charges_costs () =
  let w = make_world () in
  let e = make_enclave w in
  ignore (Enclave.sign e ~msg_tag:1);
  let expected =
    Cost_model.default.Cost_model.ecdsa_sign +. Cost_model.default.Cost_model.enclave_switch
  in
  Alcotest.(check (float 1e-12)) "sign cost charged" expected !(w.charged)

let test_enclave_restart_bumps_generation () =
  let w = make_world () in
  let e = make_enclave w in
  Alcotest.(check int) "gen 0" 0 (Enclave.generation e);
  w.clock <- 10.0;
  Enclave.restart e;
  Alcotest.(check int) "gen 1" 1 (Enclave.generation e);
  Alcotest.(check (float 1e-9)) "instantiation time" 10.0 (Enclave.instantiated_at e)

let test_enclave_rand_host_independent () =
  (* Two invocation patterns by the host must not change the stream. *)
  let w1 = make_world () and w2 = make_world () in
  let e1 = make_enclave w1 and e2 = make_enclave w2 in
  let a = Enclave.read_rand64 e1 in
  let b = Enclave.read_rand64 e2 in
  Alcotest.(check int64) "same seed same stream" a b

(* ------------------------------------------------------------------ *)
(* Sealing                                                             *)
(* ------------------------------------------------------------------ *)

let test_sealing_roundtrip () =
  let w = make_world () in
  let e = make_enclave w in
  let blob = Sealing.seal e (42, "state") in
  Alcotest.(check bool) "unseals" true (Sealing.unseal e blob = Some (42, "state"))

let test_sealing_rejects_foreign_enclave () =
  let w = make_world () in
  let e0 = make_enclave ~id:0 w in
  let e1 = make_enclave ~id:1 w in
  let blob = Sealing.seal e0 "secret" in
  Alcotest.(check bool) "foreign enclave cannot unseal" true (Sealing.unseal e1 blob = None)

let test_sealing_rejects_tampering () =
  let w = make_world () in
  let e = make_enclave w in
  let blob = Sealing.seal e "original" in
  let tampered = Sealing.tamper blob "modified" in
  Alcotest.(check bool) "tampered rejected" true (Sealing.unseal e tampered = None)

let test_sealing_replay_is_possible () =
  (* Sealing does NOT protect against rollback: an old blob still unseals.
     This is the attack surface Appendix A closes at the protocol level. *)
  let w = make_world () in
  let e = make_enclave w in
  let v1 = Sealing.seal e 1 in
  let _v2 = Sealing.seal e 2 in
  Alcotest.(check bool) "stale blob accepted by sealing" true (Sealing.unseal e v1 = Some 1)

(* ------------------------------------------------------------------ *)
(* Monotonic counter                                                   *)
(* ------------------------------------------------------------------ *)

let test_mono_counter () =
  let c = Mono_counter.create () in
  Alcotest.(check int) "starts 0" 0 (Mono_counter.read c);
  Alcotest.(check int) "inc" 1 (Mono_counter.increment c);
  Alcotest.(check int) "inc again" 2 (Mono_counter.increment c);
  Alcotest.(check int) "read" 2 (Mono_counter.read c)

(* ------------------------------------------------------------------ *)
(* A2M                                                                 *)
(* ------------------------------------------------------------------ *)

let make_a2m ?(window = 100) w = A2m.create (make_enclave w) ~watermark_window:window

let test_a2m_append_and_verify () =
  let w = make_world () in
  let a2m = make_a2m w in
  match A2m.append a2m ~log:1 ~slot:1 ~digest_tag:42 with
  | None -> Alcotest.fail "append refused"
  | Some proof ->
      Alcotest.(check bool) "proof verifies" true (A2m.verify w.keystore proof);
      Alcotest.(check bool) "lookup" true (A2m.lookup a2m ~log:1 ~slot:1 = Some 42)

let test_a2m_refuses_equivocation () =
  let w = make_world () in
  let a2m = make_a2m w in
  ignore (A2m.append a2m ~log:1 ~slot:1 ~digest_tag:42);
  Alcotest.(check bool) "conflicting digest refused" true
    (A2m.append a2m ~log:1 ~slot:1 ~digest_tag:43 = None);
  Alcotest.(check bool) "same digest re-attested" true
    (A2m.append a2m ~log:1 ~slot:1 ~digest_tag:42 <> None)

let test_a2m_logs_are_independent () =
  let w = make_world () in
  let a2m = make_a2m w in
  ignore (A2m.append a2m ~log:1 ~slot:1 ~digest_tag:42);
  Alcotest.(check bool) "other log same slot fine" true
    (A2m.append a2m ~log:2 ~slot:1 ~digest_tag:43 <> None)

let test_a2m_proof_forgery_fails () =
  let w = make_world () in
  let a2m = make_a2m w in
  match A2m.append a2m ~log:1 ~slot:1 ~digest_tag:42 with
  | None -> Alcotest.fail "append refused"
  | Some proof ->
      let forged = { proof with A2m.digest_tag = 43 } in
      Alcotest.(check bool) "altered digest fails" false (A2m.verify w.keystore forged);
      let resloted = { proof with A2m.slot = 2 } in
      Alcotest.(check bool) "altered slot fails" false (A2m.verify w.keystore resloted)

let test_a2m_truncate () =
  let w = make_world () in
  let a2m = make_a2m w in
  ignore (A2m.append a2m ~log:1 ~slot:1 ~digest_tag:1);
  ignore (A2m.append a2m ~log:1 ~slot:10 ~digest_tag:10);
  A2m.truncate_below a2m ~slot:5;
  Alcotest.(check bool) "old gone" true (A2m.lookup a2m ~log:1 ~slot:1 = None);
  Alcotest.(check bool) "new kept" true (A2m.lookup a2m ~log:1 ~slot:10 = Some 10)

let test_a2m_rollback_attack_blocked () =
  (* The Appendix A scenario: restart with a stale seal and try to
     re-attest a forgotten slot with a different value. *)
  let w = make_world () in
  let a2m = make_a2m ~window:50 w in
  ignore (A2m.append a2m ~log:1 ~slot:1 ~digest_tag:1);
  let stale = A2m.seal_state a2m in
  ignore (A2m.append a2m ~log:1 ~slot:2 ~digest_tag:2);
  A2m.restart a2m ~resume_with:(Some stale);
  Alcotest.(check bool) "recovering" true (A2m.is_recovering a2m);
  Alcotest.(check bool) "appends refused during recovery" true
    (A2m.append a2m ~log:1 ~slot:2 ~digest_tag:999 = None)

let test_a2m_recovery_hm_estimation () =
  let w = make_world () in
  let a2m = make_a2m ~window:50 w in
  A2m.restart a2m ~resume_with:None;
  Alcotest.(check bool) "needs f+1 answers" true (A2m.estimate_hm a2m ~f:2 = None);
  A2m.record_peer_checkpoint a2m ~peer:1 ~ckp:30;
  A2m.record_peer_checkpoint a2m ~peer:2 ~ckp:10;
  Alcotest.(check bool) "two answers insufficient for f=2" true (A2m.estimate_hm a2m ~f:2 = None);
  A2m.record_peer_checkpoint a2m ~peer:3 ~ckp:20;
  (* ckpM = 3rd smallest of {10, 20, 30} = 30; HM = 30 + 50. *)
  Alcotest.(check (option int)) "HM = ckpM + L" (Some 80) (A2m.estimate_hm a2m ~f:2)

let test_a2m_recovery_gate () =
  let w = make_world () in
  let a2m = make_a2m ~window:50 w in
  A2m.restart a2m ~resume_with:None;
  List.iteri (fun i ckp -> A2m.record_peer_checkpoint a2m ~peer:(i + 1) ~ckp) [ 10; 10; 10 ];
  Alcotest.(check bool) "below HM rejected" false
    (A2m.finish_recovery a2m ~f:2 ~stable_checkpoint:59);
  Alcotest.(check bool) "still recovering" true (A2m.is_recovering a2m);
  Alcotest.(check bool) "at HM accepted" true (A2m.finish_recovery a2m ~f:2 ~stable_checkpoint:60);
  Alcotest.(check bool) "appends resume" true (A2m.append a2m ~log:0 ~slot:100 ~digest_tag:5 <> None)

let test_a2m_recovery_duplicate_peer_updates () =
  let w = make_world () in
  let a2m = make_a2m ~window:10 w in
  A2m.restart a2m ~resume_with:None;
  A2m.record_peer_checkpoint a2m ~peer:1 ~ckp:5;
  A2m.record_peer_checkpoint a2m ~peer:1 ~ckp:50;
  A2m.record_peer_checkpoint a2m ~peer:2 ~ckp:7;
  (* f = 1: need 2 answers from distinct peers; peer 1 counts once (latest). *)
  Alcotest.(check (option int)) "dedup by peer" (Some 60) (A2m.estimate_hm a2m ~f:1)

let test_a2m_foreign_seal_starts_empty () =
  (* A snapshot sealed by a different enclave identity must be rejected,
     leaving the restarted enclave with empty logs. *)
  let w = make_world () in
  let a2m = make_a2m w in
  ignore (A2m.append a2m ~log:1 ~slot:3 ~digest_tag:33);
  let other = A2m.create (make_enclave ~id:9 w) ~watermark_window:100 in
  ignore (A2m.append other ~log:1 ~slot:3 ~digest_tag:99);
  let foreign = A2m.seal_state other in
  A2m.restart a2m ~resume_with:(Some foreign);
  Alcotest.(check bool) "foreign snapshot ignored" true (A2m.lookup a2m ~log:1 ~slot:3 = None)

(* ------------------------------------------------------------------ *)
(* Beacon                                                              *)
(* ------------------------------------------------------------------ *)

let make_beacon ?(l_bits = 0) ?(delta = 2.0) w =
  Beacon.create (make_enclave w) (Mono_counter.create ()) ~l_bits ~delta

let test_beacon_rejects_bad_l_bits () =
  Alcotest.check_raises "l = 63" (Invariant.Violation "Beacon.create: l_bits = 63 out of [0, 62]")
    (fun () -> ignore (make_beacon ~l_bits:63 (make_world ())));
  Alcotest.check_raises "l = -1" (Invariant.Violation "Beacon.create: l_bits = -1 out of [0, 62]")
    (fun () -> ignore (make_beacon ~l_bits:(-1) (make_world ())))

let test_beacon_emits_certificate () =
  let w = make_world () in
  let b = make_beacon w in
  match Beacon.invoke b ~epoch:1 with
  | Beacon.Cert c ->
      Alcotest.(check int) "epoch" 1 c.Beacon.epoch;
      Alcotest.(check bool) "verifies" true (Beacon.verify w.keystore c)
  | _ -> Alcotest.fail "l=0 should always produce a certificate"

let test_beacon_once_per_epoch () =
  let w = make_world () in
  let b = make_beacon w in
  ignore (Beacon.invoke b ~epoch:1);
  Alcotest.(check bool) "second invocation refused" true
    (Beacon.invoke b ~epoch:1 = Beacon.Already_invoked);
  (match Beacon.invoke b ~epoch:2 with
  | Beacon.Cert _ -> ()
  | _ -> Alcotest.fail "new epoch should work")

let test_beacon_restart_guard () =
  let w = make_world () in
  let b = make_beacon ~delta:5.0 w in
  ignore (Beacon.invoke b ~epoch:1);
  w.clock <- 10.0;
  Beacon.restart b;
  w.clock <- 12.0;
  (* Less than delta since restart: the replay window is closed. *)
  Alcotest.(check bool) "guard active" true (Beacon.invoke b ~epoch:1 = Beacon.Guard_active);
  w.clock <- 16.0;
  (match Beacon.invoke b ~epoch:2 with
  | Beacon.Cert _ -> ()
  | _ -> Alcotest.fail "after delta the beacon serves again")

let test_beacon_genesis_monotonic_counter () =
  let w = make_world () in
  let b = make_beacon ~delta:1.0 w in
  ignore (Beacon.invoke b ~epoch:0);
  Beacon.restart b;
  w.clock <- 100.0;
  Alcotest.(check bool) "genesis replay detected" true
    (Beacon.invoke b ~epoch:0 = Beacon.Genesis_replayed)

let test_beacon_unlucky_with_large_l () =
  let w = make_world () in
  let b = make_beacon ~l_bits:30 w in
  (* With q of 30 bits the chance of a cert is ~1e-9. *)
  match Beacon.invoke b ~epoch:1 with
  | Beacon.Unlucky -> ()
  | Beacon.Cert _ -> Alcotest.fail "astronomically unlikely"
  | _ -> Alcotest.fail "unexpected outcome"

let test_beacon_repeat_probability_math () =
  Alcotest.(check (float 1e-12)) "l=0 never repeats" 0.0
    (Beacon.repeat_probability ~l_bits:0 ~n:16);
  let p = Beacon.repeat_probability ~l_bits:4 ~n:16 in
  Alcotest.(check (float 1e-9)) "analytic" (Float.pow (1.0 -. (1.0 /. 16.0)) 16.0) p;
  Alcotest.(check (float 1e-9)) "expected certs" 1.0 (Beacon.expected_certs ~l_bits:4 ~n:16)

(* ------------------------------------------------------------------ *)
(* Aggregator                                                          *)
(* ------------------------------------------------------------------ *)

let votes_for w ~stmt_tag ids =
  List.map
    (fun id ->
      let e = make_enclave ~id w in
      ignore (Enclave.measurement e);
      Enclave.sign_free e ~msg_tag:stmt_tag)
    ids

let test_aggregator_quorum () =
  let w = make_world () in
  let leader = make_enclave ~id:100 w in
  let stmt_tag = 4242 in
  let votes = votes_for w ~stmt_tag [ 0; 1; 2 ] in
  match Aggregator.aggregate leader ~f:2 ~stmt_tag ~votes with
  | None -> Alcotest.fail "3 votes should reach f+1 = 3"
  | Some proof ->
      Alcotest.(check bool) "verifies" true (Aggregator.verify w.keystore ~f:2 proof);
      Alcotest.(check int) "voters" 3 (List.length proof.Aggregator.voters)

let test_aggregator_insufficient_votes () =
  let w = make_world () in
  let leader = make_enclave ~id:100 w in
  let stmt_tag = 1 in
  let votes = votes_for w ~stmt_tag [ 0; 1 ] in
  Alcotest.(check bool) "2 < f+1 = 3" true (Aggregator.aggregate leader ~f:2 ~stmt_tag ~votes = None)

let test_aggregator_dedups_signers () =
  let w = make_world () in
  let leader = make_enclave ~id:100 w in
  let stmt_tag = 7 in
  let e0 = make_enclave ~id:0 w in
  let v = Enclave.sign_free e0 ~msg_tag:stmt_tag in
  Alcotest.(check bool) "same signer thrice is one vote" true
    (Aggregator.aggregate leader ~f:2 ~stmt_tag ~votes:[ v; v; v ] = None)

let test_aggregator_rejects_wrong_statement () =
  let w = make_world () in
  let leader = make_enclave ~id:100 w in
  let votes = votes_for w ~stmt_tag:1 [ 0; 1; 2 ] in
  Alcotest.(check bool) "votes for another statement" true
    (Aggregator.aggregate leader ~f:2 ~stmt_tag:2 ~votes = None)

let test_aggregator_proof_not_transferable () =
  let w = make_world () in
  let leader = make_enclave ~id:100 w in
  let stmt_tag = 11 in
  let votes = votes_for w ~stmt_tag [ 0; 1; 2 ] in
  match Aggregator.aggregate leader ~f:2 ~stmt_tag ~votes with
  | None -> Alcotest.fail "should aggregate"
  | Some proof ->
      let forged = { proof with Aggregator.stmt_tag = 12 } in
      Alcotest.(check bool) "restamped statement fails" false
        (Aggregator.verify w.keystore ~f:2 forged)

(* ------------------------------------------------------------------ *)
(* PoET enclave                                                        *)
(* ------------------------------------------------------------------ *)

let test_poet_wait_memoized () =
  let w = make_world () in
  let p = Poet_enclave.create (make_enclave w) in
  let w1 = Poet_enclave.draw_wait p ~height:1 ~mean_wait:10.0 in
  let w2 = Poet_enclave.draw_wait p ~height:1 ~mean_wait:10.0 in
  Alcotest.(check (float 0.0)) "host cannot redraw" w1 w2

let test_poet_certificate_only_after_wait () =
  let w = make_world () in
  let p = Poet_enclave.create (make_enclave w) in
  let wait = Poet_enclave.draw_wait p ~height:1 ~mean_wait:10.0 in
  Alcotest.(check bool) "early cert refused" true
    (Poet_enclave.certificate p ~height:1 ~l_bits:0 ~now:(wait /. 2.0) = None);
  match Poet_enclave.certificate p ~height:1 ~l_bits:0 ~now:(wait +. 0.01) with
  | Some cert ->
      Alcotest.(check bool) "verifies" true (Poet_enclave.verify w.keystore cert);
      Alcotest.(check bool) "lucky (plain PoET)" true cert.Poet_enclave.lucky
  | None -> Alcotest.fail "expired wait should yield a certificate"

let test_poet_wins_ordering () =
  let w = make_world () in
  let mk node wait lucky =
    let e = make_enclave ~id:node w in
    {
      Poet_enclave.node;
      height = 1;
      wait;
      lucky;
      signature = Enclave.sign_free e ~msg_tag:0;
    }
  in
  let a = mk 0 1.0 true and b = mk 1 2.0 true and c = mk 2 0.5 false in
  Alcotest.(check bool) "shorter wait wins" true (Poet_enclave.wins a b);
  Alcotest.(check bool) "longer loses" false (Poet_enclave.wins b a);
  Alcotest.(check bool) "unlucky never wins" false (Poet_enclave.wins c a);
  Alcotest.(check bool) "lucky beats unlucky" true (Poet_enclave.wins a c)

let test_a2m_highest_attested () =
  let w = make_world () in
  let a2m = make_a2m w in
  Alcotest.(check int) "empty" (-1) (A2m.highest_attested a2m);
  ignore (A2m.append a2m ~log:0 ~slot:4 ~digest_tag:1);
  ignore (A2m.append a2m ~log:1 ~slot:9 ~digest_tag:1);
  Alcotest.(check int) "max slot across logs" 9 (A2m.highest_attested a2m)

let test_beacon_cert_binds_epoch () =
  let w = make_world () in
  let b = make_beacon w in
  match Beacon.invoke b ~epoch:5 with
  | Beacon.Cert c ->
      let forged = { c with Beacon.epoch = 6 } in
      Alcotest.(check bool) "re-stamped epoch fails" false (Beacon.verify w.keystore forged)
  | _ -> Alcotest.fail "expected cert"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_a2m_no_two_digests_per_slot =
  QCheck.Test.make ~name:"a2m: at most one digest is ever attested per slot" ~count:100
    QCheck.(list (pair (int_bound 10) (int_bound 5)))
    (fun appends ->
      let w = make_world () in
      let a2m = make_a2m w in
      let first : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun (slot, digest) ->
          match A2m.append a2m ~log:0 ~slot ~digest_tag:digest with
          | Some _ -> (
              match Hashtbl.find_opt first (0, slot) with
              | None ->
                  Hashtbl.replace first (0, slot) digest;
                  true
              | Some d -> d = digest)
          | None -> Hashtbl.find_opt first (0, slot) <> Some digest || false)
        appends)

let prop_beacon_epochs_independent =
  QCheck.Test.make ~name:"beacon: distinct epochs give distinct rnd" ~count:50
    QCheck.(int_range 1 100)
    (fun e ->
      let w = make_world () in
      let b = make_beacon w in
      match (Beacon.invoke b ~epoch:e, Beacon.invoke b ~epoch:(e + 1)) with
      | Beacon.Cert a, Beacon.Cert c -> a.Beacon.rnd <> c.Beacon.rnd
      | _ -> false)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_a2m_no_two_digests_per_slot; prop_beacon_epochs_independent ]

let () =
  Alcotest.run "sgx"
    [
      ( "enclave",
        [
          Alcotest.test_case "sign/verify" `Quick test_enclave_sign_verify;
          Alcotest.test_case "cost charging" `Quick test_enclave_charges_costs;
          Alcotest.test_case "restart generation" `Quick test_enclave_restart_bumps_generation;
          Alcotest.test_case "rand host-independent" `Quick test_enclave_rand_host_independent;
        ] );
      ( "sealing",
        [
          Alcotest.test_case "roundtrip" `Quick test_sealing_roundtrip;
          Alcotest.test_case "foreign enclave" `Quick test_sealing_rejects_foreign_enclave;
          Alcotest.test_case "tampering" `Quick test_sealing_rejects_tampering;
          Alcotest.test_case "replay possible (rollback surface)" `Quick
            test_sealing_replay_is_possible;
        ] );
      ("mono_counter", [ Alcotest.test_case "monotone" `Quick test_mono_counter ]);
      ( "a2m",
        [
          Alcotest.test_case "append and verify" `Quick test_a2m_append_and_verify;
          Alcotest.test_case "refuses equivocation" `Quick test_a2m_refuses_equivocation;
          Alcotest.test_case "independent logs" `Quick test_a2m_logs_are_independent;
          Alcotest.test_case "proof forgery" `Quick test_a2m_proof_forgery_fails;
          Alcotest.test_case "truncate" `Quick test_a2m_truncate;
          Alcotest.test_case "rollback blocked" `Quick test_a2m_rollback_attack_blocked;
          Alcotest.test_case "HM estimation" `Quick test_a2m_recovery_hm_estimation;
          Alcotest.test_case "recovery gate" `Quick test_a2m_recovery_gate;
          Alcotest.test_case "duplicate peers" `Quick test_a2m_recovery_duplicate_peer_updates;
          Alcotest.test_case "foreign seal" `Quick test_a2m_foreign_seal_starts_empty;
          Alcotest.test_case "highest attested" `Quick test_a2m_highest_attested;
        ] );
      ( "beacon",
        [
          Alcotest.test_case "emits certificate" `Quick test_beacon_emits_certificate;
          Alcotest.test_case "once per epoch" `Quick test_beacon_once_per_epoch;
          Alcotest.test_case "restart guard" `Quick test_beacon_restart_guard;
          Alcotest.test_case "genesis counter" `Quick test_beacon_genesis_monotonic_counter;
          Alcotest.test_case "unlucky large l" `Quick test_beacon_unlucky_with_large_l;
          Alcotest.test_case "repeat probability" `Quick test_beacon_repeat_probability_math;
          Alcotest.test_case "cert binds epoch" `Quick test_beacon_cert_binds_epoch;
          Alcotest.test_case "rejects bad l_bits" `Quick test_beacon_rejects_bad_l_bits;
        ] );
      ( "aggregator",
        [
          Alcotest.test_case "quorum" `Quick test_aggregator_quorum;
          Alcotest.test_case "insufficient votes" `Quick test_aggregator_insufficient_votes;
          Alcotest.test_case "dedups signers" `Quick test_aggregator_dedups_signers;
          Alcotest.test_case "wrong statement" `Quick test_aggregator_rejects_wrong_statement;
          Alcotest.test_case "proof not transferable" `Quick test_aggregator_proof_not_transferable;
        ] );
      ( "poet_enclave",
        [
          Alcotest.test_case "wait memoized" `Quick test_poet_wait_memoized;
          Alcotest.test_case "cert after wait" `Quick test_poet_certificate_only_after_wait;
          Alcotest.test_case "wins ordering" `Quick test_poet_wins_ordering;
        ] );
      ("properties", qsuite);
    ]

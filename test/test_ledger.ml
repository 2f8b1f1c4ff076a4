open Repro_ledger

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let test_state_put_get () =
  let s = State.create () in
  State.put s "k" "v";
  Alcotest.(check (option string)) "get" (Some "v") (State.get_data s "k");
  Alcotest.(check bool) "mem" true (State.mem s "k");
  Alcotest.(check (option string)) "missing" None (State.get_data s "nope")

let test_state_versions_bump () =
  let s = State.create () in
  State.put s "k" "v1";
  State.put s "k" "v2";
  match State.get s "k" with
  | Some { State.data; version } ->
      Alcotest.(check string) "latest" "v2" data;
      Alcotest.(check int) "version" 1 version
  | None -> Alcotest.fail "missing"

let test_state_delete () =
  let s = State.create () in
  State.put s "k" "v";
  State.delete s "k";
  Alcotest.(check bool) "gone" false (State.mem s "k")

let test_state_root_changes_with_content () =
  let s = State.create () in
  State.put s "a" "1";
  let r1 = State.root s in
  State.put s "b" "2";
  let r2 = State.root s in
  Alcotest.(check bool) "root differs" false (Repro_crypto.Sha256.equal r1 r2)

let test_state_root_insertion_order_free () =
  let s1 = State.create () and s2 = State.create () in
  State.put s1 "a" "1";
  State.put s1 "b" "2";
  State.put s2 "b" "2";
  State.put s2 "a" "1";
  Alcotest.(check bool) "same root" true (Repro_crypto.Sha256.equal (State.root s1) (State.root s2))

let test_state_snapshot_restore () =
  let s = State.create () in
  State.put s "a" "1";
  State.put s "b" "2";
  State.put s "b" "3";
  let s' = State.restore (State.snapshot s) in
  Alcotest.(check bool) "equal" true (State.equal s s');
  Alcotest.(check bool) "roots match" true
    (Repro_crypto.Sha256.equal (State.root s) (State.root s'))

(* Funded accounts, one rewritten balance, a plain string value and a
   held lock: the root and transfer size were recorded on the string-only
   state, so typed balances and lock tuples must hash and serialise to the
   same bytes. *)
let test_state_root_known_answer () =
  let s = State.create () in
  Executor.set_balance s "chk_acc0" 1000;
  Executor.set_balance s "chk_acc1" 250;
  Executor.set_balance s "sav_acc0" 1000;
  Executor.set_balance s "chk_acc1" 240;
  State.put s "item_7" "held-by:acme";
  ignore (Locks.acquire (Locks.create s) ~txid:42 "chk_acc1");
  let expected = "daa728c9a7d247e95f99de40fde52adc0019d8c02a097438dbf80275b4feaf49" in
  Alcotest.(check string) "root" expected (Repro_crypto.Sha256.to_hex (State.root s));
  Alcotest.(check (list string))
    "keys" [ "L_chk_acc1"; "chk_acc0"; "chk_acc1"; "item_7"; "sav_acc0" ] (State.keys s);
  Alcotest.(check (option string)) "lock tuple" (Some "42") (State.get_data s "L_chk_acc1");
  Alcotest.(check int) "transfer bytes" 189
    (Repro_shard.State_transfer.size_bytes (Repro_shard.State_transfer.pack s));
  Alcotest.(check string) "restored root" expected
    (Repro_crypto.Sha256.to_hex (State.root (State.restore (State.snapshot s))))

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

let test_locks_acquire_release () =
  let s = State.create () in
  let l = Locks.create s in
  Alcotest.(check bool) "acquire" true (Locks.acquire l ~txid:1 "acc");
  Alcotest.(check (option int)) "holder" (Some 1) (Locks.holder l "acc");
  Alcotest.(check bool) "lock tuple on chain" true (State.mem s "L_acc");
  Locks.release l ~txid:1 "acc";
  Alcotest.(check (option int)) "released" None (Locks.holder l "acc")

let test_locks_conflict () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "acc");
  Alcotest.(check bool) "other tx refused" false (Locks.acquire l ~txid:2 "acc");
  Alcotest.(check bool) "re-entrant" true (Locks.acquire l ~txid:1 "acc")

let test_locks_release_only_owner () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "acc");
  Locks.release l ~txid:2 "acc";
  Alcotest.(check (option int)) "still held" (Some 1) (Locks.holder l "acc")

let test_locks_acquire_all_rollback () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:9 "b");
  Alcotest.(check bool) "all-or-nothing fails" false (Locks.acquire_all l ~txid:1 [ "a"; "b"; "c" ]);
  Alcotest.(check (option int)) "a rolled back" None (Locks.holder l "a");
  Alcotest.(check (option int)) "b untouched" (Some 9) (Locks.holder l "b")

let test_locks_acquire_all_keeps_prior_locks () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "a");
  ignore (Locks.acquire l ~txid:9 "c");
  Alcotest.(check bool) "fails on c" false (Locks.acquire_all l ~txid:1 [ "a"; "b"; "c" ]);
  Alcotest.(check (option int)) "pre-existing a kept" (Some 1) (Locks.holder l "a");
  Alcotest.(check (option int)) "b rolled back" None (Locks.holder l "b")

let test_locks_held_by () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "b");
  ignore (Locks.acquire l ~txid:1 "a");
  ignore (Locks.acquire l ~txid:2 "c");
  Alcotest.(check (list string)) "tx1 locks" [ "a"; "b" ] (Locks.held_by l ~txid:1)

(* Only lock tuples count: ordinary keys, including ones that merely look
   like a prefix, are state. *)
let test_locks_held_count () =
  let s = State.create () in
  let l = Locks.create s in
  State.put s "acct" "5";
  State.put s "L_" "not a lock";
  ignore (Locks.acquire l ~txid:1 "a");
  ignore (Locks.acquire l ~txid:2 "b");
  Alcotest.(check int) "two tuples held" 2 (Locks.held_count l);
  Locks.release l ~txid:1 "a";
  Alcotest.(check int) "one after release" 1 (Locks.held_count l)

(* ------------------------------------------------------------------ *)
(* Tx                                                                  *)
(* ------------------------------------------------------------------ *)

let test_tx_keys_sorted_distinct () =
  let tx =
    Tx.make ~txid:1
      [ Tx.Put { key = "b"; value = "1" }; Tx.Get { key = "a" }; Tx.Put { key = "b"; value = "2" } ]
  in
  Alcotest.(check (list string)) "keys" [ "a"; "b" ] (Tx.keys tx)

let test_tx_shard_mapping_stable () =
  let a = Tx.shard_of_key ~shards:7 "account-42" in
  let b = Tx.shard_of_key ~shards:7 "account-42" in
  Alcotest.(check int) "deterministic" a b;
  Alcotest.(check bool) "in range" true (a >= 0 && a < 7)

let test_tx_shard_mapping_spreads () =
  let shards = 8 in
  let counts = Array.make shards 0 in
  for i = 0 to 7999 do
    let s = Tx.shard_of_key ~shards ("key" ^ string_of_int i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "within 20% of uniform" true (abs (c - 1000) < 200))
    counts

let test_tx_ops_for_shard_partitions () =
  let shards = 5 in
  let ops = List.init 20 (fun i -> Tx.Put { key = "k" ^ string_of_int i; value = "" }) in
  let tx = Tx.make ~txid:1 ops in
  let total =
    List.fold_left
      (fun acc s -> acc + List.length (Tx.ops_for_shard ~shards tx s))
      0
      (List.init shards Fun.id)
  in
  Alcotest.(check int) "partition covers all ops" 20 total

let test_tx_cross_shard_detection () =
  let shards = 4 in
  (* Find two keys in different shards and two in the same. *)
  let k0 = "base" in
  let s0 = Tx.shard_of_key ~shards k0 in
  let rec find pred i =
    let k = "probe" ^ string_of_int i in
    if pred (Tx.shard_of_key ~shards k) then k else find pred (i + 1)
  in
  let other = find (fun s -> s <> s0) 0 in
  let same = find (fun s -> s = s0) 0 in
  let mk keys = Tx.make ~txid:1 (List.map (fun key -> Tx.Put { key; value = "" }) keys) in
  Alcotest.(check bool) "cross" true (Tx.is_cross_shard ~shards (mk [ k0; other ]));
  Alcotest.(check bool) "single" false (Tx.is_cross_shard ~shards (mk [ k0; same ]))

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let funded () =
  let s = State.create () in
  Executor.set_balance s "alice" 100;
  Executor.set_balance s "bob" 50;
  s

let transfer ~amount = [ Tx.Debit { account = "alice"; amount }; Tx.Credit { account = "bob"; amount } ]

let fail_refused = function
  | Executor.Lock_conflict { key; holder } -> Alcotest.failf "lock conflict on %s (tx %d)" key holder
  | Executor.Insufficient account -> Alcotest.failf "insufficient funds: %s" account

let expect_prepared = function Ok () -> () | Error e -> fail_refused e

let expect_insufficient expected = function
  | Error (Executor.Insufficient account) -> Alcotest.(check string) "overdrawn" expected account
  | Error e -> fail_refused e
  | Ok () -> Alcotest.fail "overdraft accepted"

let test_executor_prepare_commit () =
  let s = funded () in
  expect_prepared (Executor.try_prepare s ~txid:1 (transfer ~amount:30));
  (* Locks are held between prepare and commit. *)
  let l = Locks.create s in
  Alcotest.(check (option int)) "alice locked" (Some 1) (Locks.holder l "alice");
  Executor.commit s ~txid:1 (transfer ~amount:30);
  Alcotest.(check int) "alice" 70 (Executor.balance s "alice");
  Alcotest.(check int) "bob" 80 (Executor.balance s "bob");
  Alcotest.(check (option int)) "locks released" None (Locks.holder l "alice")

let test_executor_prepare_insufficient () =
  let s = funded () in
  expect_insufficient "alice" (Executor.try_prepare s ~txid:1 (transfer ~amount:1000));
  let l = Locks.create s in
  Alcotest.(check (option int)) "no dangling lock" None (Locks.holder l "alice")

let test_executor_credit_funds_debit () =
  (* A debit covered by a credit within the same transaction is valid. *)
  let s = State.create () in
  Executor.set_balance s "x" 0;
  let ops = [ Tx.Credit { account = "x"; amount = 10 }; Tx.Debit { account = "x"; amount = 5 } ] in
  expect_prepared (Executor.try_prepare s ~txid:1 ops)

let test_executor_reports_first_overdrawn () =
  (* Validation nets each account's ops and names the first overdrawn
     account in key order, whatever the op order. *)
  let s = State.create () in
  List.iter (fun (a, v) -> Executor.set_balance s a v) [ ("a", 0); ("b", 0); ("c", 50) ];
  let ops =
    [
      Tx.Debit { account = "c"; amount = 20 };
      Tx.Debit { account = "b"; amount = 10 };
      Tx.Credit { account = "a"; amount = 5 };
      Tx.Debit { account = "a"; amount = 6 };
      Tx.Credit { account = "b"; amount = 10 };
    ]
  in
  expect_insufficient "a" (Executor.try_prepare s ~txid:1 ops)

let test_executor_abort_releases_without_applying () =
  let s = funded () in
  ignore (Executor.try_prepare s ~txid:1 (transfer ~amount:30));
  Executor.abort s ~txid:1 (transfer ~amount:30);
  Alcotest.(check int) "alice unchanged" 100 (Executor.balance s "alice");
  Alcotest.(check (option int)) "released" None (Locks.holder (Locks.create s) "alice")

let test_executor_commit_requires_own_locks () =
  (* A commit without a preceding prepare (no locks) must not apply. *)
  let s = funded () in
  Executor.commit s ~txid:7 (transfer ~amount:30);
  Alcotest.(check int) "alice unchanged" 100 (Executor.balance s "alice")

let test_executor_lock_conflict_votes_nok () =
  let s = funded () in
  ignore (Executor.try_prepare s ~txid:1 (transfer ~amount:10));
  match Executor.try_prepare s ~txid:2 (transfer ~amount:10) with
  | Error (Executor.Lock_conflict { holder; _ }) -> Alcotest.(check int) "holder" 1 holder
  | Error (Executor.Insufficient _) -> Alcotest.fail "insufficient funds"
  | Ok () -> Alcotest.fail "conflicting prepare must fail"

let test_executor_single_path () =
  let s = funded () in
  expect_prepared (Executor.execute_single s ~txid:1 (transfer ~amount:30));
  Alcotest.(check int) "alice" 70 (Executor.balance s "alice");
  match Executor.execute_single s ~txid:2 (transfer ~amount:1000) with
  | Error _ -> Alcotest.(check int) "alice unchanged" 70 (Executor.balance s "alice")
  | Ok () -> Alcotest.fail "overdraft"

(* A refused single-shard transaction writes nothing: neither its own
   ops nor any lock tuple, whether funds or a held lock refused it. *)
let test_executor_single_refusal_unchanged () =
  let s = funded () in
  expect_prepared (Executor.try_prepare s ~txid:1 [ Tx.Credit { account = "bob"; amount = 5 } ]);
  let locks = Locks.create s in
  let snapshot () =
    ( Repro_crypto.Sha256.to_hex (State.root s),
      Locks.held_count locks,
      Locks.held_by locks ~txid:1,
      Locks.held_by locks ~txid:2 )
  in
  let before = snapshot () in
  let unchanged what =
    let root, count, by1, by2 = snapshot () in
    let root0, count0, by10, by20 = before in
    Alcotest.(check string) (what ^ ": root") root0 root;
    Alcotest.(check int) (what ^ ": held count") count0 count;
    Alcotest.(check (list string)) (what ^ ": held by tx 1") by10 by1;
    Alcotest.(check (list string)) (what ^ ": held by tx 2") by20 by2
  in
  expect_insufficient "alice"
    (Executor.execute_single s ~txid:2 [ Tx.Debit { account = "alice"; amount = 1000 } ]);
  unchanged "overdraft";
  (match Executor.execute_single s ~txid:2 (transfer ~amount:10) with
  | Error (Executor.Lock_conflict { key; holder }) ->
      Alcotest.(check string) "conflict key" "bob" key;
      Alcotest.(check int) "conflict holder" 1 holder
  | Error e -> fail_refused e
  | Ok () -> Alcotest.fail "a prepare on a held lock must be refused");
  unchanged "lock conflict"

(* ------------------------------------------------------------------ *)
(* Block / Chain                                                       *)
(* ------------------------------------------------------------------ *)

let test_chain_append_and_validate () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  ignore (Block.Chain.append c ~txs:[ "t1"; "t2" ] ~state_root ~timestamp:1.0);
  ignore (Block.Chain.append c ~txs:[ "t3" ] ~state_root ~timestamp:2.0);
  Alcotest.(check int) "height" 2 (Block.Chain.height c);
  Alcotest.(check bool) "validates" true (Block.Chain.validate c)

let test_chain_link_verification () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let g = Block.genesis state_root in
  let b1 = Block.next ~parent:g ~txs:[ "a" ] ~state_root ~timestamp:1.0 in
  Alcotest.(check bool) "link ok" true (Block.verify_link ~parent:g ~child:b1);
  let forged = { b1 with Block.txs = [ "b" ] } in
  Alcotest.(check bool) "tampered txs detected" false (Block.verify_link ~parent:g ~child:forged)

(* Recorded before headers were sealed on read: the lazy chain must give
   every digest the eager one gave. *)
let test_chain_golden_digests () =
  let hex = Repro_crypto.Sha256.to_hex in
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  ignore (Block.Chain.append c ~txs:[ "t1"; "t2" ] ~state_root ~timestamp:1.0);
  ignore
    (Block.Chain.append c ~txs:[ "t3" ]
       ~state_root:(Repro_crypto.Sha256.digest_string "s2")
       ~timestamp:2.5);
  ignore (Block.Chain.append c ~txs:[ "t4"; "t5"; "t6" ] ~state_root ~timestamp:3.25);
  Alcotest.(check string)
    "tip hash" "bdf58967e57999b5a23fc0828e954e1fd75f4fc501269c97c50143865fafa4aa"
    (hex (Block.hash (Block.Chain.tip c)));
  List.iteri
    (fun h expected ->
      match Block.Chain.at c h with
      | Some b ->
          Alcotest.(check string)
            (Printf.sprintf "tx_root %d" h)
            expected
            (hex (Block.header b).Block.tx_root)
      | None -> Alcotest.fail "missing block")
    [
      "35ec8ea66a238bd043e3061051e7170bdcbd5aa57bfac08ce890e03877881fac";
      "056d9c293200751b3cd7e9137c477afb88659fa3c901e2376a236daa0a0cefb7";
      "c15007fbfbc17a79e767f5111c2ecd8727b90f144ffa8972fd96e7c2ad92ada5";
      "99d987848780404e4af5ea9cc716450839631251df31a23bbefc83e42826e729";
    ];
  Alcotest.(check bool) "validates" true (Block.Chain.validate c)

let forgeable_chain () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  List.iter
    (fun txs -> ignore (Block.Chain.append c ~txs ~state_root ~timestamp:1.0))
    [ [ "a" ]; [ "b"; "c" ]; [ "d" ] ];
  c

(* The header commits to the body as appended, so tampering with the
   stored body is caught whether or not the header was read first. *)
let test_chain_forge_before_seal_detected () =
  List.iter
    (fun h ->
      let c = forgeable_chain () in
      Block.Chain.forge_txs c h [ "x" ];
      Alcotest.(check bool)
        (Printf.sprintf "block %d forged before any read" h)
        false (Block.Chain.validate c);
      let c = forgeable_chain () in
      Alcotest.(check bool) "clean chain" true (Block.Chain.validate c);
      Block.Chain.forge_txs c h [ "x" ];
      Alcotest.(check bool)
        (Printf.sprintf "block %d forged after sealing" h)
        false (Block.Chain.validate c))
    [ 1; 2; 3 ]

(* Sealing a long unread chain must not recurse once per block. *)
let test_chain_long_validates () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  for i = 1 to 20_000 do
    ignore (Block.Chain.append c ~txs:[ "req-" ^ string_of_int i ] ~state_root ~timestamp:0.0)
  done;
  Alcotest.(check int) "height" 20_000 (Block.Chain.height c);
  Alcotest.(check bool) "validates" true (Block.Chain.validate c)

let test_chain_tx_inclusion_proof () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let g = Block.genesis state_root in
  let b = Block.next ~parent:g ~txs:[ "t0"; "t1"; "t2" ] ~state_root ~timestamp:1.0 in
  let proof = Block.tx_proof b 1 in
  Alcotest.(check bool) "t1 included" true (Block.verify_tx b ~tx:"t1" proof);
  Alcotest.(check bool) "t9 not included" false (Block.verify_tx b ~tx:"t9" proof)

(* ------------------------------------------------------------------ *)
(* Chaincodes: the Section 6.3 split on typed op lists                 *)
(* ------------------------------------------------------------------ *)

let smallbank_accounts n = List.init n (fun i -> "acc" ^ string_of_int i)

let checking s acc = Executor.balance s (Smallbank_cc.checking_key acc)

(* A checking balance of [initial] for each of "acc0".."accN-1". *)
let fund_smallbank s ~accounts ~initial =
  List.iter
    (fun acc -> Executor.set_balance s (Smallbank_cc.checking_key acc) initial)
    (smallbank_accounts accounts)

let smallbank_total s ~accounts =
  List.fold_left (fun sum acc -> sum + checking s acc) 0 (smallbank_accounts accounts)

let test_kvstore_prepare_commit_cycle () =
  let s = State.create () in
  let ops = [ Tx.Put { key = "k"; value = "v" } ] in
  expect_prepared (Executor.try_prepare s ~txid:5 ops);
  Alcotest.(check bool) "lock tuple exists" true (State.mem s "L_k");
  Executor.commit s ~txid:5 ops;
  Alcotest.(check (option string)) "written" (Some "v") (State.get_data s "k");
  Alcotest.(check bool) "lock gone" false (State.mem s "L_k")

let test_smallbank_send_payment () =
  let s = State.create () in
  fund_smallbank s ~accounts:2 ~initial:100;
  expect_prepared
    (Executor.execute_single s ~txid:1 (Smallbank_cc.send_payment_ops ~src:"acc0" ~dst:"acc1" ~amount:40));
  Alcotest.(check int) "src" 60 (checking s "acc0");
  Alcotest.(check int) "dst" 140 (checking s "acc1");
  Alcotest.(check int) "money conserved" 200 (smallbank_total s ~accounts:2)

let test_smallbank_overdraft_refused () =
  let s = State.create () in
  fund_smallbank s ~accounts:2 ~initial:100;
  expect_insufficient "chk_acc0"
    (Executor.execute_single s ~txid:1 (Smallbank_cc.send_payment_ops ~src:"acc0" ~dst:"acc1" ~amount:500));
  Alcotest.(check int) "unchanged" 100 (checking s "acc0");
  Alcotest.(check bool) "no lock tuple" false (State.mem s "L_chk_acc0")

let test_smallbank_prepare_payment_running_example () =
  (* The Section 6.3 running example: the prepare phase writes the lock
     tuples, the commit phase applies and removes them. *)
  let s = State.create () in
  fund_smallbank s ~accounts:2 ~initial:100;
  let ops = Smallbank_cc.send_payment_ops ~src:"acc0" ~dst:"acc1" ~amount:25 in
  expect_prepared (Executor.try_prepare s ~txid:9 ops);
  Alcotest.(check bool) "L_chk_acc0 exists" true (State.mem s "L_chk_acc0");
  Executor.commit s ~txid:9 ops;
  Alcotest.(check int) "applied" 75 (checking s "acc0");
  Alcotest.(check bool) "lock removed" false (State.mem s "L_chk_acc0")

(* ------------------------------------------------------------------ *)
(* UTXO                                                                *)
(* ------------------------------------------------------------------ *)

let test_utxo_mint_and_spend () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  Alcotest.(check int) "balance" 10 (Utxo.balance u "alice");
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("bob", 10) ] } with
  | Ok [ out ] ->
      Alcotest.(check string) "new owner" "bob" out.Utxo.owner;
      Alcotest.(check int) "alice spent" 0 (Utxo.balance u "alice");
      Alcotest.(check int) "bob funded" 10 (Utxo.balance u "bob")
  | Ok _ | Error _ -> Alcotest.fail "spend failed"

let test_utxo_double_spend_rejected () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  ignore (Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("bob", 10) ] });
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("carol", 10) ] } with
  | Error _ -> Alcotest.(check int) "carol got nothing" 0 (Utxo.balance u "carol")
  | Ok _ -> Alcotest.fail "double spend accepted"

let test_utxo_rejects_inflation () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("bob", 11) ] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "created money"

let test_utxo_rejects_duplicate_inputs () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id; c.Utxo.id ]; outputs = [ ("bob", 20) ] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate input accepted"

let test_utxo_multi_input_change () =
  let u = Utxo.create () in
  let c1 = Utxo.mint u ~owner:"alice" ~amount:7 in
  let c2 = Utxo.mint u ~owner:"alice" ~amount:5 in
  match
    Utxo.apply u
      { Utxo.inputs = [ c1.Utxo.id; c2.Utxo.id ]; outputs = [ ("bob", 10); ("alice", 2) ] }
  with
  | Ok _ ->
      Alcotest.(check int) "change" 2 (Utxo.balance u "alice");
      Alcotest.(check int) "paid" 10 (Utxo.balance u "bob")
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Tx serialization                                                    *)
(* ------------------------------------------------------------------ *)

let sample_tx =
  Tx.make ~txid:42 ~client:7 ~submitted:1.25
    [
      Tx.Put { key = "k|odd"; value = "v%0a" };
      Tx.Get { key = "plain" };
      Tx.Debit { account = "alice"; amount = 30 };
      Tx.Credit { account = "bob"; amount = 30 };
    ]

let placement_keys placement =
  List.map (fun (shard, ops) -> (shard, List.map Tx.key_of_op ops)) placement

(* Recorded before placements were memoised on the transaction. *)
let test_tx_golden_placement () =
  let keys =
    [ "acc0"; "acc1"; "acc2"; "acc3"; "checking_acc4"; "savings_acc4"; "ctr_acc5"; "key7"; "alice"; "bob" ]
  in
  let tx = Tx.make ~txid:1 (List.map (fun key -> Tx.Put { key; value = "" }) keys) in
  let check shards expected =
    Alcotest.(check (list (pair int (list string))))
      (Printf.sprintf "%d shards" shards)
      expected
      (placement_keys (Tx.placement ~shards tx))
  in
  check 6
    [
      (0, [ "checking_acc4"; "savings_acc4"; "key7"; "bob" ]);
      (1, [ "acc2"; "acc3"; "alice" ]);
      (3, [ "acc0"; "ctr_acc5" ]);
      (5, [ "acc1" ]);
    ];
  check 12
    [
      (0, [ "checking_acc4"; "key7"; "bob" ]);
      (1, [ "acc2"; "acc3"; "alice" ]);
      (3, [ "acc0"; "ctr_acc5" ]);
      (6, [ "savings_acc4" ]);
      (11, [ "acc1" ]);
    ]

(* Known answers: the first four SHA-256 bytes of the key, big-endian,
   modulo the shard count.  One shard takes every key without hashing. *)
let test_tx_shard_known_answers () =
  List.iter
    (fun (key, shards, expected) ->
      Alcotest.(check int) (Printf.sprintf "%s over %d" key shards) expected
        (Tx.shard_of_key ~shards key))
    [
      ("account-42", 7, 5);
      ("account-42", 12, 11);
      ("chk_acc0", 7, 3);
      ("ctr_acc7", 12, 10);
      ("key19", 2, 0);
      ("account-42", 1, 0);
      ("chk_acc0", 1, 0);
      ("", 1, 0);
    ];
  let tx =
    Tx.make ~txid:1 (List.map (fun key -> Tx.Put { key; value = "" }) [ "account-42"; "alice"; "key19" ])
  in
  Alcotest.(check (list (pair int (list string))))
    "one shard holds every op in order"
    [ (0, [ "account-42"; "alice"; "key19" ]) ]
    (placement_keys (Tx.placement ~shards:1 tx));
  List.iter
    (fun shards ->
      match Tx.shard_of_key ~shards "alice" with
      | exception Repro_util.Invariant.Violation _ -> ()
      | s -> Alcotest.failf "%d shards answered %d" shards s)
    [ 0; -3 ]

let test_tx_placement_memoised () =
  let tx =
    Tx.make ~txid:1 (List.map (fun key -> Tx.Put { key; value = "" }) [ "acc0"; "acc1"; "acc2" ])
  in
  let p6 = Tx.placement ~shards:6 tx in
  Alcotest.(check bool) "second call is the memo" true (p6 == Tx.placement ~shards:6 tx);
  let fresh = Tx.make ~txid:1 tx.Tx.ops in
  let p12 = Tx.placement ~shards:12 tx in
  Alcotest.(check (list (pair int (list string))))
    "other shard count recomputes"
    (placement_keys (Tx.placement ~shards:12 fresh))
    (placement_keys p12);
  Alcotest.(check bool) "shards_touched reads the memo" true
    (Tx.shards_touched ~shards:12 tx = List.map fst p12)

let test_tx_serialize_roundtrip () =
  match Tx.deserialize (Tx.serialize sample_tx) with
  | Ok t ->
      Alcotest.(check int) "txid" 42 t.Tx.txid;
      Alcotest.(check int) "client" 7 t.Tx.client;
      Alcotest.(check int) "ops count" 4 (List.length t.Tx.ops);
      Alcotest.(check bool) "ops equal" true (t.Tx.ops = sample_tx.Tx.ops)
  | Error e -> Alcotest.fail e

let test_tx_deserialize_rejects_garbage () =
  (match Tx.deserialize "not a tx" with Error _ -> () | Ok _ -> Alcotest.fail "garbage accepted");
  match Tx.deserialize "tx|1|2|3.0\nfly|me" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad op accepted"

let test_tx_digest_distinguishes () =
  let other = Tx.make ~txid:43 ~client:7 ~submitted:1.25 sample_tx.Tx.ops in
  Alcotest.(check bool) "different txid different digest" false
    (Repro_crypto.Sha256.equal (Tx.digest sample_tx) (Tx.digest other))

(* ------------------------------------------------------------------ *)
(* Contract DSL (Section 6.4 extension)                                *)
(* ------------------------------------------------------------------ *)

let send_payment_contract =
  Contract.define ~name:"sendPayment" ~arity:3
    [ Contract.Transfer { from_ = Contract.Param 0; to_ = Contract.Param 1;
                          amount = Contract.Amount_param 2 } ]

let test_contract_compile () =
  match Contract.compile send_payment_contract ~args:[ "alice"; "bob"; "25" ] with
  | Ok [ Tx.Debit { account = "alice"; amount = 25 }; Tx.Credit { account = "bob"; amount = 25 } ]
    ->
      ()
  | Ok _ -> Alcotest.fail "wrong ops"
  | Error e -> Alcotest.fail e

let test_contract_arity_and_amount_errors () =
  (match Contract.compile send_payment_contract ~args:[ "alice"; "bob" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity not checked");
  match Contract.compile send_payment_contract ~args:[ "alice"; "bob"; "lots" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "amount not parsed"

let test_contract_define_validates_params () =
  Alcotest.check_raises "param out of range"
    (Repro_util.Invariant.Violation "Contract.define: parameter out of range") (fun () ->
      ignore
        (Contract.define ~name:"bad" ~arity:1
           [ Contract.Deposit { to_ = Contract.Param 3; amount = Contract.Amount_lit 1 } ]))

let test_contract_analyze () =
  let shards = 4 in
  match Contract.analyze send_payment_contract ~shards ~args:[ "alice"; "bob"; "5" ] with
  | `Single s -> Alcotest.(check int) "alice&bob same shard" (Tx.shard_of_key ~shards "alice") s
  | `Cross l ->
      Alcotest.(check (list int)) "footprint"
        (List.sort_uniq compare [ Tx.shard_of_key ~shards "alice"; Tx.shard_of_key ~shards "bob" ])
        l

let compiled contract ~args =
  match Contract.compile contract ~args with Ok ops -> ops | Error e -> Alcotest.fail e

let test_contract_single_shard_entry () =
  (* The original single-shard entry point: prepare + commit fused. *)
  let s = State.create () in
  Executor.set_balance s "alice" 100;
  expect_prepared
    (Executor.execute_single s ~txid:1 (compiled send_payment_contract ~args:[ "alice"; "bob"; "30" ]));
  Alcotest.(check int) "alice" 70 (Executor.balance s "alice");
  Alcotest.(check int) "bob" 30 (Executor.balance s "bob")

let test_contract_auto_sharded_entries () =
  (* The same definition serves the coordinator's prepare/commit flow. *)
  let s = State.create () in
  Executor.set_balance s "alice" 100;
  let ops = compiled send_payment_contract ~args:[ "alice"; "bob"; "30" ] in
  expect_prepared (Executor.try_prepare s ~txid:9 ops);
  Alcotest.(check bool) "auto lock tuple" true (State.mem s "L_alice");
  Executor.commit s ~txid:9 ops;
  Alcotest.(check int) "applied" 70 (Executor.balance s "alice");
  Alcotest.(check bool) "lock gone" false (State.mem s "L_alice")

let test_contract_guarded_withdraw () =
  let escrow =
    Contract.define ~name:"release" ~arity:2
      [
        Contract.Withdraw { from_ = Contract.Lit "escrow"; amount = Contract.Amount_param 1 };
        Contract.Deposit { to_ = Contract.Param 0; amount = Contract.Amount_param 1 };
        Contract.Set { key = Contract.Lit "escrow_status"; value = Contract.Lit "released" };
      ]
  in
  let s = State.create () in
  Executor.set_balance s "escrow" 50;
  expect_insufficient "escrow" (Executor.execute_single s ~txid:1 (compiled escrow ~args:[ "carol"; "80" ]));
  Alcotest.(check (option string)) "status untouched" None (State.get_data s "escrow_status");
  expect_prepared (Executor.execute_single s ~txid:2 (compiled escrow ~args:[ "carol"; "50" ]));
  Alcotest.(check int) "carol paid" 50 (Executor.balance s "carol");
  Alcotest.(check (option string)) "status" (Some "released") (State.get_data s "escrow_status")

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_money_conserved_under_random_transfers =
  QCheck.Test.make ~name:"smallbank conserves money under random op sequences" ~count:100
    QCheck.(list (triple (int_bound 4) (int_bound 4) (int_range 1 50)))
    (fun transfers ->
      let s = State.create () in
      fund_smallbank s ~accounts:5 ~initial:100;
      List.iteri
        (fun i (a, b, amount) ->
          ignore
            (Executor.execute_single s ~txid:i
               (Smallbank_cc.send_payment_ops ~src:("acc" ^ string_of_int a)
                  ~dst:("acc" ^ string_of_int b) ~amount)))
        transfers;
      smallbank_total s ~accounts:5 = 500)

let prop_utxo_value_never_increases =
  QCheck.Test.make ~name:"utxo total value never increases" ~count:100
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun spends ->
      let u = Utxo.create () in
      let coins = Array.init 10 (fun i -> Utxo.mint u ~owner:("o" ^ string_of_int i) ~amount:10) in
      let initial = Utxo.total_unspent u in
      List.iter
        (fun (i, j) ->
          ignore
            (Utxo.apply u
               { Utxo.inputs = [ coins.(i).Utxo.id ]; outputs = [ (("o" ^ string_of_int j), 10) ] }))
        spends;
      Utxo.total_unspent u <= initial)

let prop_tx_serialize_roundtrip =
  QCheck.Test.make ~name:"tx serialization roundtrips" ~count:200
    QCheck.(
      pair small_int
        (list_of_size Gen.(1 -- 8) (pair (pair printable_string printable_string) (int_bound 1000))))
    (fun (txid, raw_ops) ->
      let ops =
        List.concat_map
          (fun ((k, v), amount) ->
            if k = "" then []
            else [ Tx.Put { key = k; value = v }; Tx.Debit { account = k ^ "a"; amount } ])
          raw_ops
      in
      ops = []
      ||
      let tx = Tx.make ~txid ops in
      match Tx.deserialize (Tx.serialize tx) with
      | Ok t -> t.Tx.ops = tx.Tx.ops && t.Tx.txid = tx.Tx.txid
      | Error _ -> false)

(* [Tx.placement] (one hash per op) must agree with the filter-based
   definitions it replaced: the sorted distinct shards of the ops, and per
   shard the ops whose key hashes there, in their original order. *)
let prop_tx_placement_matches_filter =
  QCheck.Test.make ~name:"tx placement agrees with per-shard filters" ~count:300
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(0 -- 10) (pair (int_bound 40) (int_bound 2))))
    (fun (shards, raw_ops) ->
      let ops =
        List.mapi
          (fun i (k, kind) ->
            let key = "k" ^ string_of_int k in
            match kind with
            | 0 -> Tx.Put { key; value = string_of_int i }
            | 1 -> Tx.Get { key }
            | _ -> Tx.Debit { account = key; amount = i })
          raw_ops
      in
      let tx = Tx.make ~txid:1 ops in
      let shard_of op = Tx.shard_of_key ~shards (Tx.key_of_op op) in
      let touched = List.sort_uniq Int.compare (List.map shard_of ops) in
      let placement = Tx.placement ~shards tx in
      List.map fst placement = touched
      && Tx.shards_touched ~shards tx = touched
      && List.for_all
           (fun s ->
             let expected = List.filter (fun op -> shard_of op = s) ops in
             Tx.on_shard placement s = expected && Tx.ops_for_shard ~shards tx s = expected)
           (List.init shards Fun.id))

let prop_prepare_abort_is_identity =
  QCheck.Test.make ~name:"prepare then abort leaves state unchanged" ~count:100
    QCheck.(pair (int_range 1 200) (int_range 1 200))
    (fun (bal, amount) ->
      let s = State.create () in
      Executor.set_balance s "a" bal;
      Executor.set_balance s "b" 0;
      let snapshot = State.snapshot s in
      let ops = [ Tx.Debit { account = "a"; amount }; Tx.Credit { account = "b"; amount } ] in
      ignore (Executor.try_prepare s ~txid:1 ops);
      Executor.abort s ~txid:1 ops;
      (* Versions may have moved (lock write/delete) but data must match. *)
      List.for_all
        (fun (k, v) -> State.get_data s k = Some v.State.data)
        snapshot)

(* ------------------------------------------------------------------ *)
(* Typed State against the string-only model                           *)
(* ------------------------------------------------------------------ *)

(* The world state as a plain string table, every balance and lock holder
   a decimal string and every lock the tuple ["L_" ^ key], with the
   ledger's readers written over it.  The typed [State] must be
   indistinguishable from it through every reader. *)
module Model = struct
  type t = { table : (string, State.value) Hashtbl.t }

  let create () = { table = Hashtbl.create 16 }

  let get t key = Hashtbl.find_opt t.table key

  let get_data t key = Option.map (fun v -> v.State.data) (get t key)

  let put t key data =
    let version = match get t key with Some v -> v.State.version + 1 | None -> 0 in
    Hashtbl.replace t.table key { State.data; version }

  let delete t key = Hashtbl.remove t.table key

  let keys t = Repro_util.Det.keys ~compare:String.compare t.table

  let snapshot t = List.map (fun k -> (k, Hashtbl.find t.table k)) (keys t)

  let root t =
    Repro_crypto.Merkle.root
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s@%d" k v.State.data v.State.version) (snapshot t))

  let restore entries =
    let t = create () in
    List.iter (fun (k, v) -> Hashtbl.replace t.table k v) entries;
    t

  let size_bytes t =
    List.fold_left
      (fun acc (k, v) -> acc + String.length k + String.length v.State.data + 12)
      64 (snapshot t)

  let balance t account =
    match get_data t account with
    | None -> 0
    | Some data -> Option.value (int_of_string_opt data) ~default:0

  let set_balance t account v = put t account (string_of_int v)

  let lock_key key = "L_" ^ key

  let is_lock_key k = String.length k > 2 && String.starts_with ~prefix:"L_" k

  let holder t key =
    match get_data t (lock_key key) with None -> None | Some data -> int_of_string_opt data

  let acquire t ~txid key =
    match holder t key with
    | Some owner -> owner = txid
    | None ->
        put t (lock_key key) (string_of_int txid);
        true

  let acquire_all t ~txid keys =
    let rec go newly = function
      | [] -> true
      | key :: rest -> (
          match holder t key with
          | Some owner when owner = txid -> go newly rest
          | Some _ ->
              List.iter (fun k -> delete t (lock_key k)) newly;
              false
          | None ->
              put t (lock_key key) (string_of_int txid);
              go (key :: newly) rest)
    in
    go [] keys

  let release t ~txid key =
    match holder t key with Some owner when owner = txid -> delete t (lock_key key) | _ -> ()

  let held_by t ~txid =
    List.filter_map
      (fun k ->
        if is_lock_key k then
          let base = String.sub k 2 (String.length k - 2) in
          match holder t base with Some owner when owner = txid -> Some base | _ -> None
        else None)
      (keys t)

  let held_count t = List.length (List.filter is_lock_key (keys t))

  let apply_delta t key delta =
    let current = Option.value (get_data t key) ~default:"" in
    let int_of_data d = Option.value (int_of_string_opt d) ~default:0 in
    let merged =
      match Merge.canon delta with
      | Tx.Add n -> string_of_int (int_of_data current + n)
      | Tx.Maxi n -> string_of_int (Int.max (int_of_data current) n)
      | Tx.Union elts ->
          let set = match current with "" -> [] | d -> String.split_on_char ',' d in
          String.concat "," (List.sort_uniq String.compare (set @ elts))
    in
    put t key merged
end

type state_step =
  | Put of string * string
  | Set_balance of string * int
  | Delete of string
  | Acquire of int * string
  | Acquire_all of int * string list
  | Release of int * string
  | Delta of string * Tx.delta
  | Restore

(* Lock bases include the empty key (whose tuple "L_" is no lock tuple)
   and an "L_" key (whose lock tuple is "L_L_a"). *)
let lock_bases = [ ""; "a"; "b"; "L_a"; "x" ]

let state_keys = lock_bases @ List.map (fun k -> "L_" ^ k) lock_bases

(* Canonical numbers and the spellings [int_of_string_opt] reads that
   [string_of_int] never writes. *)
let state_data = [ "5"; "42"; "0"; "-3"; "007"; "+5"; "0x10"; "-0"; "1_000"; "abc"; ""; "a,b" ]

let state_txids = [ -3; 0; 1; 2; 5; 7; 16; 42; 1000 ]

let pp_state_step = function
  | Put (k, d) -> Printf.sprintf "put %S %S" k d
  | Set_balance (k, n) -> Printf.sprintf "set_balance %S %d" k n
  | Delete k -> Printf.sprintf "delete %S" k
  | Acquire (txid, k) -> Printf.sprintf "acquire %d %S" txid k
  | Acquire_all (txid, ks) -> Printf.sprintf "acquire_all %d [%s]" txid (String.concat "; " ks)
  | Release (txid, k) -> Printf.sprintf "release %d %S" txid k
  | Delta (k, d) -> Format.asprintf "delta %S %a" k Tx.pp_delta d
  | Restore -> "restore"

let state_step_gen =
  let open QCheck.Gen in
  let key = oneofl state_keys and base = oneofl lock_bases in
  let txid = oneofl [ 1; 2; 3; 5; 7; 16; 42 ] in
  let amount = oneofl [ -3; 0; 1; 5; 42; 1000 ] in
  frequency
    [
      (3, map2 (fun k d -> Put (k, d)) key (oneofl state_data));
      (3, map2 (fun k n -> Set_balance (k, n)) key amount);
      (2, map (fun k -> Delete k) key);
      (3, map2 (fun t k -> Acquire (t, k)) txid base);
      (2, map2 (fun t ks -> Acquire_all (t, List.sort_uniq String.compare ks)) txid (list_size (1 -- 3) base));
      (3, map2 (fun t k -> Release (t, k)) txid base);
      ( 2,
        map2
          (fun k d -> Delta (k, d))
          key
          (oneof
             [ map (fun n -> Tx.Add n) amount; map (fun n -> Tx.Maxi n) amount;
               map (fun e -> Tx.Union e) (list_size (0 -- 2) (oneofl [ "a"; "b"; "c" ])) ]) );
      (1, return Restore);
    ]

let same_entries a b =
  List.equal
    (fun (ka, va) (kb, vb) ->
      String.equal ka kb && String.equal va.State.data vb.State.data
      && va.State.version = vb.State.version)
    a b

let state_agrees s m =
  let locks = Locks.create s in
  same_entries (State.snapshot s) (Model.snapshot m)
  && List.equal String.equal (State.keys s) (Model.keys m)
  && Repro_crypto.Sha256.equal (State.root s) (Model.root m)
  && List.length (State.keys s) = Hashtbl.length m.Model.table
  && Repro_shard.State_transfer.size_bytes (Repro_shard.State_transfer.pack s) = Model.size_bytes m
  && List.for_all
       (fun k ->
         State.get_data s k = Model.get_data m k
         && State.get s k = Model.get m k
         && State.mem s k = Hashtbl.mem m.Model.table k
         && Executor.balance s k = Model.balance m k)
       state_keys
  && List.for_all (fun k -> Locks.holder locks k = Model.holder m k) lock_bases
  && Locks.held_count locks = Model.held_count m
  && List.for_all
       (fun txid -> List.equal String.equal (Locks.held_by locks ~txid) (Model.held_by m ~txid))
       state_txids

let prop_typed_state_matches_model =
  QCheck.Test.make ~name:"typed state reads as the string-only state" ~count:300
    (QCheck.make
       ~print:(fun steps -> String.concat "\n" (List.map pp_state_step steps))
       QCheck.Gen.(list_size (0 -- 40) state_step_gen))
    (fun steps ->
      let rec go s m = function
        | [] -> true
        | step :: rest ->
            let same_result =
              match step with
              | Put (k, d) ->
                  State.put s k d;
                  Model.put m k d;
                  true
              | Set_balance (k, n) ->
                  Executor.set_balance s k n;
                  Model.set_balance m k n;
                  true
              | Delete k ->
                  State.delete s k;
                  Model.delete m k;
                  true
              | Acquire (txid, k) -> Locks.acquire (Locks.create s) ~txid k = Model.acquire m ~txid k
              | Acquire_all (txid, ks) ->
                  Locks.acquire_all (Locks.create s) ~txid ks = Model.acquire_all m ~txid ks
              | Release (txid, k) ->
                  Locks.release (Locks.create s) ~txid k;
                  Model.release m ~txid k;
                  true
              | Delta (k, d) ->
                  Merge.apply_delta s k d;
                  Model.apply_delta m k d;
                  true
              | Restore -> true
            in
            let s, m =
              match step with
              | Restore -> (State.restore (State.snapshot s), Model.restore (Model.snapshot m))
              | _ -> (s, m)
            in
            same_result && state_agrees s m && go s m rest
      in
      go (State.create ()) (Model.create ()) steps)

(* ------------------------------------------------------------------ *)
(* Mergeable state (the fast lane's delta algebra, DESIGN §18)         *)
(* ------------------------------------------------------------------ *)

let test_merge_classify () =
  (* A Merge op classifies as itself; a Credit as an Add of its amount;
     conditional debits never classify. *)
  (match Merge.classify_op (Tx.Merge { key = "k"; delta = Tx.Add 3 }) with
  | Some ("k", Tx.Add 3) -> ()
  | _ -> Alcotest.fail "Merge op should classify as itself");
  (match Merge.classify_op (Tx.Credit { account = "a"; amount = 7 }) with
  | Some ("a", Tx.Add 7) -> ()
  | _ -> Alcotest.fail "Credit should classify as an Add");
  Alcotest.(check bool) "Debit is not mergeable" true
    (Merge.classify_op (Tx.Debit { account = "a"; amount = 7 }) = None);
  (* classify_placement is all-or-nothing. *)
  let all_credits =
    Tx.make ~txid:1
      [ Tx.Credit { account = "a"; amount = 1 }; Tx.Credit { account = "b"; amount = 2 } ]
  in
  (match Merge.classify_placement (Tx.placement ~shards:1 all_credits) with
  | Some [ (0, [ ("a", Tx.Add 1); ("b", Tx.Add 2) ]) ] -> ()
  | _ -> Alcotest.fail "all-credit tx should classify");
  let mixed =
    Tx.make ~txid:2
      [ Tx.Credit { account = "a"; amount = 1 }; Tx.Debit { account = "b"; amount = 2 } ]
  in
  Alcotest.(check bool) "mixed tx stays locked" true
    (Merge.classify_placement (Tx.placement ~shards:1 mixed) = None)

let test_merge_apply_delta () =
  let s = State.create () in
  Executor.set_balance s "n" 10;
  Merge.apply_delta s "n" (Tx.Add 5);
  Alcotest.(check int) "add folds onto balance" 15 (Executor.balance s "n");
  Merge.apply_delta s "n" (Tx.Maxi 40);
  Alcotest.(check int) "max lifts" 40 (Executor.balance s "n");
  Merge.apply_delta s "n" (Tx.Maxi 12);
  Alcotest.(check int) "max keeps" 40 (Executor.balance s "n");
  Merge.apply_delta s "fresh" (Tx.Add 3);
  Alcotest.(check int) "absent key starts at identity" 3 (Executor.balance s "fresh");
  Merge.apply_delta s "set" (Tx.Union [ "b"; "a" ]);
  Merge.apply_delta s "set" (Tx.Union [ "c"; "a" ]);
  Alcotest.(check (option string)) "union accumulates sorted" (Some "a,b,c")
    (State.get_data s "set")

let test_merge_lane_fold_order_free () =
  (* Same delta set, two append orders: identical folded state and root. *)
  let run order =
    let lane = Merge.lane () in
    let s = State.create () in
    Executor.set_balance s "x" 100;
    List.iter (fun (txid, key, d) -> Merge.append lane s ~txid ~key d) order;
    let count, _digest = Merge.fold_into lane s in
    (count, Executor.balance s "x", Executor.balance s "y", Repro_crypto.Sha256.to_hex (Merge.root lane))
  in
  let deltas = [ (1, "x", Tx.Add 5); (2, "y", Tx.Add 7); (3, "x", Tx.Maxi 90) ] in
  let a = run deltas and b = run (List.rev deltas) in
  Alcotest.(check bool) "fold independent of arrival order" true (a = b);
  let count, x, y, _ = a in
  Alcotest.(check int) "all folded" 3 count;
  Alcotest.(check int) "x folded canonically" 105 x;
  Alcotest.(check int) "y folded" 7 y

let test_merge_audit_detects_divergence () =
  let lane = Merge.lane () in
  let s = State.create () in
  Executor.set_balance s "k" 10;
  Merge.append lane s ~txid:1 ~key:"k" (Tx.Add 5);
  ignore (Merge.fold_into lane s);
  Alcotest.(check int) "one fold" 1 (Merge.folds lane);
  Alcotest.(check int) "nothing pending" 0 (Merge.depth lane);
  Alcotest.(check int) "log keeps history" 1 (Merge.log_length lane);
  Alcotest.(check bool) "converged after fold" true (Merge.audit lane s = []);
  (* A write bypassing the lane is exactly what the audit exists to catch. *)
  Executor.set_balance s "k" 999;
  match Merge.audit lane s with
  | [ { Merge.mkey = "k"; expected; actual } ] ->
      Alcotest.(check string) "expected is the canonical fold" "15" expected;
      Alcotest.(check string) "actual is the tampered value" "999" actual
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms)

let delta_arb =
  let print d = Format.asprintf "%a" Tx.pp_delta d in
  QCheck.make ~print
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Tx.Add n) (int_range (-100) 100);
          map (fun n -> Tx.Maxi n) (int_range (-100) 100);
          map
            (fun l -> Tx.Union l)
            (list_size (0 -- 4) (string_size ~gen:(char_range 'a' 'd') (1 -- 2)));
        ])

let prop_merge_combine_commutative =
  QCheck.Test.make ~name:"merge combine is commutative" ~count:300
    QCheck.(pair delta_arb delta_arb)
    (fun (a, b) -> Merge.combine a b = Merge.combine b a)

let prop_merge_combine_associative =
  QCheck.Test.make ~name:"merge combine is associative" ~count:300
    QCheck.(triple delta_arb delta_arb delta_arb)
    (fun (a, b, c) ->
      let ( >>= ) = Option.bind in
      (Merge.combine a b >>= fun ab -> Merge.combine ab c)
      = (Merge.combine b c >>= fun bc -> Merge.combine a bc))

let prop_merge_identity =
  QCheck.Test.make ~name:"merge identity is neutral" ~count:300 delta_arb (fun d ->
      Merge.combine d (Merge.identity d) = Some (Merge.canon d))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_money_conserved_under_random_transfers;
      prop_utxo_value_never_increases;
      prop_prepare_abort_is_identity;
      prop_typed_state_matches_model;
      prop_tx_serialize_roundtrip;
      prop_tx_placement_matches_filter;
      prop_merge_combine_commutative;
      prop_merge_combine_associative;
      prop_merge_identity;
    ]

let () =
  Alcotest.run "ledger"
    [
      ( "state",
        [
          Alcotest.test_case "put/get" `Quick test_state_put_get;
          Alcotest.test_case "versions" `Quick test_state_versions_bump;
          Alcotest.test_case "delete" `Quick test_state_delete;
          Alcotest.test_case "root changes" `Quick test_state_root_changes_with_content;
          Alcotest.test_case "root order-free" `Quick test_state_root_insertion_order_free;
          Alcotest.test_case "snapshot/restore" `Quick test_state_snapshot_restore;
          Alcotest.test_case "root known answer" `Quick test_state_root_known_answer;
        ] );
      ( "locks",
        [
          Alcotest.test_case "acquire/release" `Quick test_locks_acquire_release;
          Alcotest.test_case "conflict" `Quick test_locks_conflict;
          Alcotest.test_case "owner-only release" `Quick test_locks_release_only_owner;
          Alcotest.test_case "acquire_all rollback" `Quick test_locks_acquire_all_rollback;
          Alcotest.test_case "acquire_all keeps prior" `Quick test_locks_acquire_all_keeps_prior_locks;
          Alcotest.test_case "held_by" `Quick test_locks_held_by;
          Alcotest.test_case "held count" `Quick test_locks_held_count;
        ] );
      ( "tx",
        [
          Alcotest.test_case "keys" `Quick test_tx_keys_sorted_distinct;
          Alcotest.test_case "stable mapping" `Quick test_tx_shard_mapping_stable;
          Alcotest.test_case "mapping spreads" `Quick test_tx_shard_mapping_spreads;
          Alcotest.test_case "ops partition" `Quick test_tx_ops_for_shard_partitions;
          Alcotest.test_case "cross-shard detection" `Quick test_tx_cross_shard_detection;
          Alcotest.test_case "serialize roundtrip" `Quick test_tx_serialize_roundtrip;
          Alcotest.test_case "deserialize rejects garbage" `Quick
            test_tx_deserialize_rejects_garbage;
          Alcotest.test_case "digest distinguishes" `Quick test_tx_digest_distinguishes;
          Alcotest.test_case "golden placement" `Quick test_tx_golden_placement;
          Alcotest.test_case "placement memoised" `Quick test_tx_placement_memoised;
          Alcotest.test_case "shard known answers" `Quick test_tx_shard_known_answers;
        ] );
      ( "executor",
        [
          Alcotest.test_case "prepare/commit" `Quick test_executor_prepare_commit;
          Alcotest.test_case "insufficient funds" `Quick test_executor_prepare_insufficient;
          Alcotest.test_case "credit funds debit" `Quick test_executor_credit_funds_debit;
          Alcotest.test_case "abort releases" `Quick test_executor_abort_releases_without_applying;
          Alcotest.test_case "commit needs locks" `Quick test_executor_commit_requires_own_locks;
          Alcotest.test_case "conflict votes NOK" `Quick test_executor_lock_conflict_votes_nok;
          Alcotest.test_case "single path" `Quick test_executor_single_path;
          Alcotest.test_case "single refusal leaves state unchanged" `Quick
            test_executor_single_refusal_unchanged;
          Alcotest.test_case "first overdrawn reported" `Quick test_executor_reports_first_overdrawn;
        ] );
      ( "block",
        [
          Alcotest.test_case "append/validate" `Quick test_chain_append_and_validate;
          Alcotest.test_case "link verification" `Quick test_chain_link_verification;
          Alcotest.test_case "tx inclusion proof" `Quick test_chain_tx_inclusion_proof;
          Alcotest.test_case "golden digests" `Quick test_chain_golden_digests;
          Alcotest.test_case "forge before seal detected" `Quick
            test_chain_forge_before_seal_detected;
          Alcotest.test_case "20k-block chain validates" `Quick test_chain_long_validates;
        ] );
      ( "chaincode",
        [
          Alcotest.test_case "kvstore 2PC cycle" `Quick test_kvstore_prepare_commit_cycle;
          Alcotest.test_case "sendPayment" `Quick test_smallbank_send_payment;
          Alcotest.test_case "overdraft refused" `Quick test_smallbank_overdraft_refused;
          Alcotest.test_case "preparePayment example" `Quick
            test_smallbank_prepare_payment_running_example;
        ] );
      ( "contract",
        [
          Alcotest.test_case "compile" `Quick test_contract_compile;
          Alcotest.test_case "arity/amount errors" `Quick test_contract_arity_and_amount_errors;
          Alcotest.test_case "define validates" `Quick test_contract_define_validates_params;
          Alcotest.test_case "analyze" `Quick test_contract_analyze;
          Alcotest.test_case "single-shard entry" `Quick test_contract_single_shard_entry;
          Alcotest.test_case "auto-sharded entries" `Quick test_contract_auto_sharded_entries;
          Alcotest.test_case "guarded withdraw" `Quick test_contract_guarded_withdraw;
        ] );
      ( "merge",
        [
          Alcotest.test_case "classify" `Quick test_merge_classify;
          Alcotest.test_case "apply delta" `Quick test_merge_apply_delta;
          Alcotest.test_case "fold order-free" `Quick test_merge_lane_fold_order_free;
          Alcotest.test_case "audit detects divergence" `Quick
            test_merge_audit_detects_divergence;
        ] );
      ( "utxo",
        [
          Alcotest.test_case "mint and spend" `Quick test_utxo_mint_and_spend;
          Alcotest.test_case "double spend" `Quick test_utxo_double_spend_rejected;
          Alcotest.test_case "inflation" `Quick test_utxo_rejects_inflation;
          Alcotest.test_case "duplicate inputs" `Quick test_utxo_rejects_duplicate_inputs;
          Alcotest.test_case "multi-input change" `Quick test_utxo_multi_input_change;
        ] );
      ("properties", qsuite);
    ]

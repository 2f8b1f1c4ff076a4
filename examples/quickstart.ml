(* Quickstart: build a 4-shard AHL+ blockchain, move money across shards,
   and read the results back — the 60-second tour of the public API.

   Run with:  dune exec examples/quickstart.exe *)

open Repro_ledger
open Repro_core

let () =
  (* 1. A sharded system: 4 shards of 3 replicas each (f = 1 per shard
        under the TEE-assisted 2f+1 rule) plus a reference committee. *)
  let sys = System.create (System.default_config ~shards:4 ~committee_size:3) in
  Printf.printf "system: %d shards, committee size %d, AHL+ consensus\n"
    (System.shards sys) (System.committee_size sys);

  (* 2. Create two accounts.  Keys are hash-partitioned, so alice and bob
        usually land in different shards. *)
  let shard_of key = Tx.shard_of_key ~shards:(System.shards sys) key in
  Executor.set_balance (System.shard_state sys (shard_of "alice")) "alice" 100;
  Executor.set_balance (System.shard_state sys (shard_of "bob")) "bob" 20;
  Printf.printf "alice lives in shard %d, bob in shard %d\n" (shard_of "alice") (shard_of "bob");

  (* 3. Submit a transfer.  If it spans shards, the system runs 2PC with
        the BFT reference committee as coordinator (Figure 5 of the
        paper); otherwise it executes directly on one committee. *)
  let tx =
    Tx.make ~txid:1
      [ Tx.Debit { account = "alice"; amount = 30 }; Tx.Credit { account = "bob"; amount = 30 } ]
  in
  Printf.printf "transaction touches shards [%s]%s\n"
    (String.concat "; " (List.map string_of_int (Tx.shards_touched ~shards:4 tx)))
    (if Tx.is_cross_shard ~shards:4 tx then " -> distributed transaction" else "");
  System.submit sys
    ~on_done:(fun outcome ->
      Printf.printf "outcome: %s\n"
        (match outcome with System.Committed -> "COMMITTED" | System.Aborted -> "ABORTED"))
    tx;

  (* 4. Run the simulated network until the protocol completes. *)
  System.run sys ~until:10.0;

  (* 5. The same transfer, written once as a typed contract (the §6.4
        extension): [Contract.compile] derives the coordinator ops, and
        the system runs them through the same prepare/commit/abort
        phases as any other transaction. *)
  let send_payment =
    Contract.define ~name:"sendPayment" ~arity:3
      [
        Contract.Transfer
          { from_ = Contract.Param 0; to_ = Contract.Param 1; amount = Contract.Amount_param 2 };
      ]
  in
  (match Contract.compile send_payment ~args:[ "bob"; "alice"; "5" ] with
  | Ok ops ->
      System.submit sys
        ~on_done:(fun o ->
          Printf.printf "contract transfer: %s\n"
            (match o with System.Committed -> "COMMITTED" | System.Aborted -> "ABORTED"))
        (Tx.make ~txid:2 ops)
  | Error e -> prerr_endline e);
  System.run sys ~until:20.0;

  (* 6. Read the world state and verify the per-shard hash chains. *)
  Printf.printf "alice: %d, bob: %d\n"
    (Executor.balance (System.shard_state sys (shard_of "alice")) "alice")
    (Executor.balance (System.shard_state sys (shard_of "bob")) "bob");
  for s = 0 to System.shards sys - 1 do
    let chain = System.shard_chain sys s in
    Printf.printf "shard %d: chain height %d, integrity %s\n" s
      (Block.Chain.height chain)
      (if Block.Chain.validate chain then "OK" else "BROKEN")
  done

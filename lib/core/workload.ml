open Repro_util
open Repro_ledger

type kind =
  | Kvstore of { updates_per_tx : int }
  | Smallbank
  | Hot_increments of { increment_fraction : float }

type t = {
  kind : kind;
  keyspace : int;
  zipf : Zipf.t;
  rng : Rng.t;
  mutable next_txid : int;
  mutable generated : int;
  mutable cross_shard : int;
  (* The shard of account [i]'s key in each family the kind draws from
     (checking, counter, kvstore), -1 until first computed, for
     [cached_for] shards (DESIGN §19).  Only ints are kept: a key string
     is rebuilt per draw and dies with its transaction. *)
  mutable cached_for : int;
  checking : int array;
  counter : int array;
  kvstore : int array;
}

let create kind ~keyspace ~theta ~rng =
  let family used = if used then Array.make keyspace (-1) else [||] in
  let checking, counter, kvstore =
    match kind with
    | Kvstore _ -> (false, false, true)
    | Smallbank -> (true, false, false)
    | Hot_increments _ -> (true, true, false)
  in
  {
    kind;
    keyspace;
    zipf = Zipf.create ~n:keyspace ~theta;
    rng = Rng.split_named rng "workload";
    next_txid = 0;
    generated = 0;
    cross_shard = 0;
    cached_for = 0;
    checking = family checking;
    counter = family counter;
    kvstore = family kvstore;
  }

let account i = "acc" ^ string_of_int i

(* Forget every cached shard when the shard count changes (a workload
   driven against another system); 0 is the empty cache's count. *)
let sync t ~shards =
  if not (Int.equal t.cached_for shards) then begin
    List.iter (fun a -> Array.fill a 0 (Array.length a) (-1)) [ t.checking; t.counter; t.kvstore ];
    t.cached_for <- shards
  end

(* [key], account [i]'s key in [family], with its shard. *)
let keyed t family i key =
  let cached = family.(i) in
  if cached >= 0 then (key, cached)
  else begin
    let shard = Tx.shard_of_key ~shards:t.cached_for key in
    family.(i) <- shard;
    (key, shard)
  end

let setup t system ~initial_balance =
  match t.kind with
  | Kvstore _ -> ()
  | Smallbank | Hot_increments _ ->
      let shards = System.shards system in
      sync t ~shards;
      let states = Array.init shards (System.shard_state system) in
      let fund key shard = Executor.set_balance states.(shard) key initial_balance in
      for i = 0 to t.keyspace - 1 do
        let checking = Smallbank_cc.checking_key (account i) in
        let shard = Tx.shard_of_key ~shards checking in
        t.checking.(i) <- shard;
        fund checking shard
      done;
      (* No transaction drawn here touches a savings balance, so routing
         and inserting them waits for a reader (DESIGN §19, genesis on
         read).  Checking and savings keys are disjoint, so funding them
         in two passes writes what one interleaved pass did. *)
      let keyspace = t.keyspace in
      State.defer (Array.to_list states) ~covers:Smallbank_cc.is_savings_key (fun () ->
          for i = 0 to keyspace - 1 do
            let savings = Smallbank_cc.savings_key (account i) in
            fund savings (Tx.shard_of_key ~shards savings)
          done)

let distinct_keys t count =
  let rec draw acc =
    if List.length acc >= count then acc
    else begin
      let k = Zipf.sample t.zipf t.rng in
      if List.mem k acc then
        (* Fall back to uniform so high skew cannot loop forever. *)
        let k' = Rng.int t.rng t.keyspace in
        draw (if List.mem k' acc then acc else k' :: acc)
      else draw (k :: acc)
    end
  in
  draw []

(* A sendPayment from account [a] to [b], with its keys' shards. *)
let payment t a b =
  let amount = 1 + Rng.int t.rng 10 in
  let src = account a and dst = account b in
  ( Smallbank_cc.send_payment_ops ~src ~dst ~amount,
    [
      keyed t t.checking a (Smallbank_cc.checking_key src);
      keyed t t.checking b (Smallbank_cc.checking_key dst);
    ] )

let next_tx t system ~client =
  let shards = System.shards system in
  sync t ~shards;
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  (* The ops, and every key they touch with its shard. *)
  let ops, known =
    match t.kind with
    | Kvstore { updates_per_tx } ->
        let known =
          List.map
            (fun k -> keyed t t.kvstore k ("key" ^ string_of_int k))
            (distinct_keys t updates_per_tx)
        in
        (List.map (fun (key, _) -> Tx.Put { key; value = "v" ^ string_of_int txid }) known, known)
    | Smallbank -> (
        match distinct_keys t 2 with
        | [ a; b ] -> payment t a b
        | ks -> Invariant.fail "Workload.next_tx: expected 2 keys, got %d" (List.length ks))
    | Hot_increments { increment_fraction } -> (
        (* The CRDV-style mix: with probability [increment_fraction] a
           credit-only increment of two hot counters — all-commutative, so
           the fast lane takes it when enabled; on the locked path it is an
           ordinary cross-shard 2PC transaction whose lock acquisitions
           collide on the Zipf head.  The rest are sendPayments, whose
           debits are conditional and always keep the locked path.  The
           counters are deliberately disjoint from the account keys: lane
           keys must never be written outside the fold, or the
           merge-convergence audit has nothing to certify. *)
        match distinct_keys t 2 with
        | [ a; b ] ->
            if Rng.float t.rng 1.0 < increment_fraction then
              let amount = 1 + Rng.int t.rng 5 in
              let known =
                [
                  keyed t t.counter a (Kvstore_cc.counter_key (account a));
                  keyed t t.counter b (Kvstore_cc.counter_key (account b));
                ]
              in
              (List.map (fun (account, _) -> Tx.Credit { account; amount }) known, known)
            else payment t a b
        | ks -> Invariant.fail "Workload.next_tx: expected 2 keys, got %d" (List.length ks))
  in
  let tx =
    Tx.make ~txid ~client ~submitted:(Repro_sim.Engine.now (System.engine system)) ops
  in
  let shard_of key =
    match List.find_opt (fun (k, _) -> String.equal k key) known with
    | Some (_, shard) -> shard
    | None -> Tx.shard_of_key ~shards key
  in
  t.generated <- t.generated + 1;
  (match Tx.placement ~shard_of ~shards tx with
  | _ :: _ :: _ -> t.cross_shard <- t.cross_shard + 1
  | [] | [ _ ] -> ());
  tx

let start_closed_loop t system ~clients ~outstanding =
  let engine = System.engine system in
  let rec submit_next client =
    let tx = next_tx t system ~client in
    System.submit system ~on_done:(fun _ -> submit_next client) tx
  in
  for client = 0 to clients - 1 do
    for _ = 1 to outstanding do
      Repro_sim.Engine.schedule engine ~delay:(Rng.float t.rng 1.0) (fun () -> submit_next client)
    done
  done

let cross_shard_fraction_seen t =
  if t.generated = 0 then 0.0 else float_of_int t.cross_shard /. float_of_int t.generated

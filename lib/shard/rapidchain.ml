(* ahl_lint: allow R9 — §6.1, Fig. 3a: RapidChain's cross-shard commit, the baseline *)
open Repro_ledger

type t = { utxos : Utxo.t array }

let create ~shards =
  if shards <= 0 then
    Repro_util.Invariant.fail "Rapidchain.create: shards %d not positive" shards;
  { utxos = Array.init shards (fun _ -> Utxo.create ()) }

let utxo_of_shard t shard = t.utxos.(shard)

let mint t ~shard ~owner ~amount = Utxo.mint t.utxos.(shard) ~owner ~amount

type split_outcome = {
  committed : bool;
  migrated_leftovers : (int * Utxo.coin) list;
}

let cross_shard_transfer t ~inputs ~output_shard ~owner =
  (* Leg 1..m: each input shard spends Iᵢ and the output shard mints the
     migrated coin Iᵢ′.  The legs are independent single-shard
     transactions — exactly RapidChain's construction. *)
  let migrated =
    List.filter_map
      (fun (shard, coin_id) ->
        match Utxo.coin t.utxos.(shard) coin_id with
        | None -> None
        | Some c -> (
            match
              Utxo.apply t.utxos.(shard)
                { Utxo.inputs = [ coin_id ]; outputs = [ (owner ^ "!burned", c.Utxo.amount) ] }
            with
            | Error _ -> None
            | Ok _ ->
                (* The value reappears in the output shard as Iᵢ′. *)
                Some (output_shard, Utxo.mint t.utxos.(output_shard) ~owner ~amount:c.Utxo.amount)))
      inputs
  in
  if List.length migrated <> List.length inputs then
    (* Some leg failed; the successful migrations are NOT rolled back. *)
    { committed = false; migrated_leftovers = migrated }
  else begin
    (* Final leg: spend the migrated coins into the output O. *)
    let total =
      List.fold_left (fun acc (_, c) -> acc + c.Utxo.amount) 0 migrated
    in
    match
      Utxo.apply t.utxos.(output_shard)
        {
          Utxo.inputs = List.map (fun (_, c) -> c.Utxo.id) migrated;
          outputs = [ (owner, total) ];
        }
    with
    | Ok _ -> { committed = true; migrated_leftovers = [] }
    | Error _ -> { committed = false; migrated_leftovers = migrated }
  end

let account_transfer states ~debits ~credit =
  let succeeded =
    List.filter_map
      (fun (shard, account, amount) ->
        let state = states.(shard) in
        if Executor.balance state account >= amount then begin
          Executor.set_balance state account (Executor.balance state account - amount);
          Some account
        end
        else None)
      debits
  in
  if List.length succeeded = List.length debits then begin
    let shard, account, amount = credit in
    Executor.set_balance states.(shard) account (Executor.balance states.(shard) account + amount);
    `Committed
  end
  else
    (* Partial execution: debited accounts stay debited (no rollback) and
       the credit never happens — the Figure 4 atomicity violation. *)
    `Partial succeeded

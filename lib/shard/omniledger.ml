open Repro_ledger

type tx = {
  txid : int;
  inputs : (int * string) list;
  output_shard : int;
  output_key : string;
}

type client_behaviour = Honest | Crash_after_locks

type t = { states : State.t array }

let create ~shards =
  if shards <= 0 then
    Repro_sim.Sim_error.invalid "Omniledger.create: shards %d not positive" shards;
  { states = Array.init shards (fun _ -> State.create ()) }

let state_of_shard t shard = t.states.(shard)

let execute t tx behaviour =
  (* Phase 1 (client-driven): lock every input in its shard. *)
  let lock_results =
    List.map
      (fun (shard, key) ->
        let locks = Locks.create t.states.(shard) in
        ((shard, key), Locks.acquire locks ~txid:tx.txid key))
      tx.inputs
  in
  if List.exists (fun (_, ok) -> not ok) lock_results then begin
    (* Honest clients unlock what they took; note a malicious client could
       equally leave these dangling. *)
    List.iter
      (fun ((shard, key), ok) ->
        if ok then Locks.release (Locks.create t.states.(shard)) ~txid:tx.txid key)
      lock_results;
    Error "input locked by another transaction"
  end
  else
    match behaviour with
    | Crash_after_locks ->
        (* The client vanishes between phases: the input shards hold locks
           with nobody left to drive an unlock — indefinite blocking. *)
        Error "client crashed"
    | Honest ->
        (* Phase 2: spend the inputs, create the output, release locks. *)
        List.iter
          (fun (shard, key) ->
            State.delete t.states.(shard) key;
            Locks.release (Locks.create t.states.(shard)) ~txid:tx.txid key)
          tx.inputs;
        State.put t.states.(tx.output_shard) tx.output_key (string_of_int tx.txid);
        Ok ()

let locked_keys t shard =
  let state = t.states.(shard) in
  List.filter_map
    (fun k ->
      if String.length k > 2 && String.sub k 0 2 = "L_" then
        Some (String.sub k 2 (String.length k - 2))
      else None)
    (State.keys state)

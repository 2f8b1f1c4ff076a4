type op =
  | Single of { txid : int; ops : Repro_ledger.Tx.op list }
  | Begin_tx of { txid : int; participants : int list }
  | Prepare_tx of { txid : int; ops : Repro_ledger.Tx.op list }
  | Vote of { txid : int; shard : int; ok : bool }
  | Commit_tx of { txid : int; ops : Repro_ledger.Tx.op list }
  | Abort_tx of { txid : int; ops : Repro_ledger.Tx.op list }
  | Merge_tx of { txid : int; deltas : (string * Repro_ledger.Tx.delta) list }
    (* Fast-lane delta leg (DESIGN §18): rides the decision position —
       one unconditional leg per participant shard, no prepare/vote. *)
  | Batch of { batch : int; steps : op list }

let rec txid_of_op = function
  | Single { txid; _ }
  | Begin_tx { txid; _ }
  | Prepare_tx { txid; _ }
  | Vote { txid; _ }
  | Commit_tx { txid; _ }
  | Abort_tx { txid; _ }
  | Merge_tx { txid; _ } ->
      txid
  (* Batches carry steps of many transactions; registry compaction keys
     them by a synthetic id disjoint from real (non-negative) txids. *)
  | Batch { batch; steps = _ } -> batch_txid batch

and batch_txid batch = -batch - 1

(* Canonical slot order: all Begins land before any Vote of the same slot,
   so a transaction whose Begin and first Votes share a batch starts before
   it counts votes; within a kind, (txid, shard, ok) breaks ties.  The
   order is a pure function of the step (never of arrival), which is what
   makes a batch's effect independent of submission interleaving. *)
let step_rank = function
  | Begin_tx _ -> 0
  | Vote _ -> 1
  | Single _ -> 2
  | Prepare_tx _ -> 3
  | Commit_tx _ -> 4
  | Abort_tx _ -> 5
  | Merge_tx _ -> 6
  | Batch _ -> 7

let batch_order a b =
  let c = Int.compare (step_rank a) (step_rank b) in
  if c <> 0 then c
  else
    let c = Int.compare (txid_of_op a) (txid_of_op b) in
    if c <> 0 then c
    else
      match (a, b) with
      | Vote { shard = sa; ok = oka; _ }, Vote { shard = sb; ok = okb; _ } ->
          let c = Int.compare sa sb in
          if c <> 0 then c else Bool.compare oka okb
      | _ -> 0

(* Tags are handed out once per distinct operation: a client retry (or an
   adversarial duplicate) re-registering the same op gets the original tag
   back, so the registry stays bounded by the set of *distinct* in-flight
   operations rather than the number of messages sent.  [release] drops a
   finished transaction's entries; a late message carrying a released tag
   simply fails [lookup] (the decision is already on every chain).

   The index never hashes an op: it files each under [slot op] (its
   transaction and step kind, an int) in a short list compared
   structurally, so a transaction's entries are the eight slots
   [8 * txid .. 8 * txid + 7] and [release] needs no list of its own. *)
module Int_table = Repro_util.Int_table

type registry = {
  mutable next : int;
  ops : op Int_table.t; (* tag -> op *)
  index : (op * int) list Int_table.t; (* slot -> (op, tag), for idempotent re-sends *)
}

(* One slot per [step_rank]: a new op kind needs a rank below this. *)
let slots_per_txid = 8

let slot op = (slots_per_txid * txid_of_op op) + step_rank op

let create_registry () = { next = 0; ops = Int_table.create 1024; index = Int_table.create 1024 }

let register r op =
  let slot = slot op in
  let filed = Option.value (Int_table.find_opt r.index slot) ~default:[] in
  match List.find_opt (fun (o, _) -> o = op) filed with
  | Some (_, tag) -> tag
  | None ->
      let tag = r.next in
      r.next <- tag + 1;
      Int_table.replace r.ops tag op;
      Int_table.replace r.index slot ((op, tag) :: filed);
      tag

let lookup r tag = Int_table.find_opt r.ops tag

let release r ~txid =
  for slot = slots_per_txid * txid to (slots_per_txid * txid) + slots_per_txid - 1 do
    match Int_table.find_opt r.index slot with
    | None -> ()
    | Some filed ->
        List.iter (fun (_, tag) -> Int_table.remove r.ops tag) filed;
        Int_table.remove r.index slot
  done

let length r = Int_table.length r.ops

let rec op_cost (costs : Repro_crypto.Cost_model.t) op =
  let per_op = costs.Repro_crypto.Cost_model.tx_execute in
  match op with
  | Single { ops; _ } -> float_of_int (List.length ops) *. per_op
  | Prepare_tx { ops; _ } | Commit_tx { ops; _ } | Abort_tx { ops; _ } ->
      (* Lock-tuple reads/writes double the state touches. *)
      2.0 *. float_of_int (List.length ops) *. per_op
  (* Delta legs take no lock tuples: one state touch per delta. *)
  | Merge_tx { deltas; _ } -> float_of_int (List.length deltas) *. per_op
  | Begin_tx _ | Vote _ -> per_op
  | Batch { steps; _ } -> List.fold_left (fun acc s -> acc +. op_cost costs s) 0.0 steps

let rec op_bytes op =
  match op with
  | Single { ops; _ } | Prepare_tx { ops; _ } | Commit_tx { ops; _ } | Abort_tx { ops; _ } ->
      40 * List.length ops
  | Merge_tx { deltas; _ } -> 40 * List.length deltas
  | Begin_tx _ | Vote _ -> 40
  | Batch { steps; _ } -> List.fold_left (fun acc s -> acc + op_bytes s) 16 steps

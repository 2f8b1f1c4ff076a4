type prepare_error =
  | Lock_conflict of { key : string; holder : int }
  | Insufficient of string

let balance state account = State.get_int state account ~default:0

let set_balance state account v = State.set_int state account v

(* The keys a leg locks: each op's key once, ascending. *)
let lock_keys ops = List.sort_uniq String.compare (List.map Tx.key_of_op ops)

(* Net effect of this transaction's local ops per account, ascending by
   account, so a prepare can validate a debit that is funded by a credit in
   the same transaction. *)
let net_deltas ops =
  let rec add account d = function
    | [] -> [ (account, d) ]
    | ((held, sum) as entry) :: rest ->
        let c = String.compare account held in
        if c = 0 then (held, sum + d) :: rest
        else if c < 0 then (account, d) :: entry :: rest
        else entry :: add account d rest
  in
  List.fold_left
    (fun deltas op ->
      match op with
      | Tx.Debit { account; amount } -> add account (-amount) deltas
      | Tx.Credit { account; amount } -> add account amount deltas
      (* Merge deltas are unconditional: they never fail validation, so a
         downgraded merge transaction cannot abort on funds. *)
      | Tx.Put _ | Tx.Get _ | Tx.Merge _ -> deltas)
    [] ops

(* The first account, ascending, that the transaction would overdraw. *)
let validate state ops =
  List.find_map
    (fun (account, delta) -> if balance state account + delta < 0 then Some account else None)
    (net_deltas ops)

let try_prepare state ~txid ops =
  let locks = Locks.create state in
  let keys = lock_keys ops in
  if not (Locks.acquire_all locks ~txid keys) then begin
    (* Report the first conflicting key and its holder. *)
    let conflict =
      List.find_map
        (fun key ->
          match Locks.holder locks key with
          | Some holder when holder <> txid -> Some (Lock_conflict { key; holder })
          | Some _ | None -> None)
        keys
    in
    Error (Option.value conflict ~default:(Lock_conflict { key = "?"; holder = -1 }))
  end
  else
    match validate state ops with
    | Some account ->
        Locks.release_all locks ~txid keys;
        Error (Insufficient account)
    | None -> Ok ()

let apply state ops =
  List.iter
    (fun op ->
      match op with
      | Tx.Put { key; value } -> State.put state key value
      | Tx.Get _ -> ()
      | Tx.Debit { account; amount } -> set_balance state account (balance state account - amount)
      | Tx.Credit { account; amount } -> set_balance state account (balance state account + amount)
      | Tx.Merge { key; delta } -> Merge.apply_delta state key delta)
    ops

let locked_by_us locks ~txid keys =
  List.for_all
    (fun key -> match Locks.holder locks key with Some h -> h = txid | None -> false)
    keys

let commit state ~txid ops =
  let locks = Locks.create state in
  let keys = lock_keys ops in
  if locked_by_us locks ~txid keys then begin
    apply state ops;
    Locks.release_all locks ~txid keys
  end

let abort state ~txid ops = Locks.release_all (Locks.create state) ~txid (lock_keys ops)

(* A refused [try_prepare] has already released (or rolled back) its
   locks, so a refusal leaves nothing to undo. *)
let execute_single state ~txid ops =
  match try_prepare state ~txid ops with
  | Error _ as refused -> refused
  | Ok () ->
      commit state ~txid ops;
      Ok ()

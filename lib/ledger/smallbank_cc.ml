let checking_key acc = "chk_" ^ acc

let savings_key acc = "sav_" ^ acc

let checking state acc = Executor.balance state (checking_key acc)

let savings state acc = Executor.balance state (savings_key acc)

let setup state ~accounts ~initial =
  for i = 0 to accounts - 1 do
    let acc = "acc" ^ string_of_int i in
    Executor.set_balance state (checking_key acc) initial;
    Executor.set_balance state (savings_key acc) initial
  done

let total_money state =
  List.fold_left
    (fun acc key ->
      if String.length key > 4 && (String.sub key 0 4 = "chk_" || String.sub key 0 4 = "sav_")
      then acc + Executor.balance state key
      else acc)
    0 (State.keys state)

let send_payment_ops ~src ~dst ~amount =
  [
    Tx.Debit { account = checking_key src; amount };
    Tx.Credit { account = checking_key dst; amount };
  ]

let amalgamate_ops state ~src ~dst =
  let total = checking state src + savings state src in
  [
    Tx.Debit { account = checking_key src; amount = checking state src };
    Tx.Debit { account = savings_key src; amount = savings state src };
    Tx.Credit { account = checking_key dst; amount = total };
  ]

let arity_error fn = Chaincode.Failure (fn ^ ": wrong arguments")

let int_arg v k = match int_of_string_opt v with Some i -> k i | None -> Chaincode.Failure "bad int"

let handler state ~txid { Chaincode.fn; args } =
  let single ops =
    match Executor.execute_single state ~txid ops with
    | Ok () -> Chaincode.Success ""
    | Error reason -> Chaincode.Failure reason
  in
  match (fn, args) with
  | "getBalance", [ acc ] ->
      Chaincode.Success (string_of_int (checking state acc + savings state acc))
  | "depositChecking", [ acc; amount ] ->
      int_arg amount (fun amount -> single [ Tx.Credit { account = checking_key acc; amount } ])
  | "transactSavings", [ acc; amount ] ->
      int_arg amount (fun amount -> single [ Tx.Debit { account = savings_key acc; amount } ])
  | "writeCheck", [ acc; amount ] ->
      int_arg amount (fun amount -> single [ Tx.Debit { account = checking_key acc; amount } ])
  | "sendPayment", [ src; dst; amount ] ->
      int_arg amount (fun amount -> single (send_payment_ops ~src ~dst ~amount))
  | "amalgamate", [ src; dst ] -> single (amalgamate_ops state ~src ~dst)
  (* Sharded refactoring: the coordination protocol drives these. *)
  | "preparePayment", _ | "prepare", _ ->
      Kvstore_cc.with_tx args (fun txid ops ->
          match Executor.prepare state ~txid ops with
          | Executor.Prepare_ok -> Chaincode.Success "PrepareOK"
          | Executor.Prepare_not_ok reason -> Chaincode.Failure reason)
  | "commitPayment", _ | "commit", _ ->
      Kvstore_cc.with_tx args (fun txid ops ->
          Executor.commit state ~txid ops;
          Chaincode.Success "")
  | "abortPayment", _ | "abort", _ ->
      Kvstore_cc.with_tx args (fun txid ops ->
          Executor.abort state ~txid ops;
          Chaincode.Success "")
  | ("getBalance" | "depositChecking" | "transactSavings" | "writeCheck" | "sendPayment"
    | "amalgamate"), _ ->
      arity_error fn
  | other, _ -> Chaincode.Failure ("unknown function " ^ other)

let chaincode = Chaincode.define handler

(* Credits are unconditional increments, so they commute: declare them
   mergeable (DESIGN §18).  Debits keep the 2PC+2PL path — their
   balance-≥-0 precondition does not commute. *)
let declare_mergeable reg =
  Merge.register reg ~name:"smallbank.credit" (fun op ->
      match op with
      | Tx.Credit { amount; _ } -> Some (Tx.Add amount)
      | Tx.Put _ | Tx.Get _ | Tx.Debit _ | Tx.Merge _ -> None)

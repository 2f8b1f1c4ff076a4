let checking_key acc = "chk_" ^ acc

let savings_key acc = "sav_" ^ acc

let send_payment_ops ~src ~dst ~amount =
  [
    Tx.Debit { account = checking_key src; amount };
    Tx.Credit { account = checking_key dst; amount };
  ]

(* Credits are unconditional increments, so they commute: declare them
   mergeable (DESIGN §18).  Debits keep the 2PC+2PL path — their
   balance-≥-0 precondition does not commute. *)
let declare_mergeable reg =
  Merge.register reg ~name:"smallbank.credit" (fun op ->
      match op with
      | Tx.Credit { amount; _ } -> Some (Tx.Add amount)
      | Tx.Put _ | Tx.Get _ | Tx.Debit _ | Tx.Merge _ -> None)

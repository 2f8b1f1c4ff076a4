let checking_key acc = "chk_" ^ acc

let savings_key acc = "sav_" ^ acc

let send_payment_ops ~src ~dst ~amount =
  [
    Tx.Debit { account = checking_key src; amount };
    Tx.Credit { account = checking_key dst; amount };
  ]

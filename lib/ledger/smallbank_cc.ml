let checking_key acc = "chk_" ^ acc

let savings_key acc = "sav_" ^ acc

(* Spelled out: [String.starts_with] allocates a closure per call, and
   [State] asks this on every access while the savings genesis is
   pending. *)
let is_savings_key key =
  String.length key >= 4 && key.[0] = 's' && key.[1] = 'a' && key.[2] = 'v' && key.[3] = '_'

let send_payment_ops ~src ~dst ~amount =
  [
    Tx.Debit { account = checking_key src; amount };
    Tx.Credit { account = checking_key dst; amount };
  ]

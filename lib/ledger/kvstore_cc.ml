let counter_key k = "ctr_" ^ k

let ops_of_increment ~keys ~amount =
  List.map (fun key -> Tx.Merge { key = counter_key key; delta = Tx.Add amount }) keys

let counter_key k = "ctr_" ^ k

let ops_of_increment ~keys ~amount =
  List.map (fun key -> Tx.Merge { key = counter_key key; delta = Tx.Add amount }) keys

(* Counters commute; blind writes do not (last-write-wins depends on
   order), so only the counter namespace is declared mergeable. *)
let declare_mergeable reg =
  Merge.register reg ~name:"kvstore.counter" (fun op ->
      match op with
      | Tx.Credit { account; amount }
        when String.length account > 4 && String.equal (String.sub account 0 4) "ctr_" ->
          Some (Tx.Add amount)
      | Tx.Put _ | Tx.Get _ | Tx.Debit _ | Tx.Credit _ | Tx.Merge _ -> None)

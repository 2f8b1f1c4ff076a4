(* Greedy delta-debugging over cross-shard schedules: the cross-shard
   candidates and oracle kinds driven by {!Shrink.greedy}'s loop. *)

let restrict indices ~txs = List.filter (fun i -> i < txs) indices

let candidates (s : Xschedule.t) =
  let drop_faults =
    List.mapi
      (fun i _ ->
        { s with Xschedule.faults = List.filteri (fun j _ -> j <> i) s.Xschedule.faults })
      s.Xschedule.faults
  in
  let simpler_flags =
    (if s.Xschedule.contended then [ { s with Xschedule.contended = false } ] else [])
    @
    match s.Xschedule.overdraft with
    | [] -> []
    | _ -> [ { s with Xschedule.overdraft = [] } ]
  in
  let fewer_malicious =
    match List.rev s.Xschedule.malicious with
    | [] | [ _ ] -> [] (* keep at least one silent client: it is the attack *)
    | _ :: keep -> [ { s with Xschedule.malicious = List.rev keep } ]
  in
  let fewer_txs =
    if s.Xschedule.txs > 2 then
      let txs = Int.max 2 (s.Xschedule.txs / 2) in
      [
        {
          s with
          Xschedule.txs;
          malicious = restrict s.Xschedule.malicious ~txs;
          overdraft = restrict s.Xschedule.overdraft ~txs;
        };
      ]
    else []
  in
  drop_faults @ simpler_flags @ fewer_malicious @ fewer_txs

let minimize ~replay ~budget schedule violation =
  Shrink.greedy ~candidates ~same_kind:Xoracle.same_kind ~replay ~budget schedule violation

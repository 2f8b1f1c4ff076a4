(* Parse the flat argument encoding produced by Chaincode.functions_of_ops:
   [txid; op; args...; op; args...]. *)
let parse_ops args =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | "put" :: key :: value :: rest -> go (Tx.Put { key; value } :: acc) rest
    | "get" :: key :: rest -> go (Tx.Get { key } :: acc) rest
    | "debit" :: account :: amount :: rest -> (
        match int_of_string_opt amount with
        | Some amount -> go (Tx.Debit { account; amount } :: acc) rest
        | None -> None)
    | "credit" :: account :: amount :: rest -> (
        match int_of_string_opt amount with
        | Some amount -> go (Tx.Credit { account; amount } :: acc) rest
        | None -> None)
    | "madd" :: key :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> go (Tx.Merge { key; delta = Tx.Add n } :: acc) rest
        | None -> None)
    | "mmax" :: key :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> go (Tx.Merge { key; delta = Tx.Maxi n } :: acc) rest
        | None -> None)
    | "munion" :: key :: count :: rest -> (
        match int_of_string_opt count with
        | Some count when count >= 0 && List.length rest >= count ->
            let rec split n xs =
              if n = 0 then ([], xs)
              else
                match xs with
                | x :: tl ->
                    let taken, rest = split (n - 1) tl in
                    (x :: taken, rest)
                | [] -> ([], [])
            in
            let elts, rest = split count rest in
            go (Tx.Merge { key; delta = Tx.Union elts } :: acc) rest
        | _ -> None)
    | _ -> None
  in
  go [] args

let with_tx args k =
  match args with
  | txid :: rest -> (
      match (int_of_string_opt txid, parse_ops rest) with
      | Some txid, Some ops -> k txid ops
      | None, _ | _, None -> Chaincode.Failure "malformed arguments")
  | [] -> Chaincode.Failure "missing txid"

let handler state ~txid:_ { Chaincode.fn; args } =
  match fn with
  | "write" -> (
      match args with
      | [ key; value ] ->
          State.put state key value;
          Chaincode.Success ""
      | _ -> Chaincode.Failure "write expects key value")
  | "read" -> (
      match args with
      | [ key ] -> (
          match State.get_data state key with
          | Some v -> Chaincode.Success v
          | None -> Chaincode.Failure "not found")
      | _ -> Chaincode.Failure "read expects key")
  | "prepare" ->
      with_tx args (fun txid ops ->
          match Executor.prepare state ~txid ops with
          | Executor.Prepare_ok -> Chaincode.Success "PrepareOK"
          | Executor.Prepare_not_ok reason -> Chaincode.Failure reason)
  | "commit" ->
      with_tx args (fun txid ops ->
          Executor.commit state ~txid ops;
          Chaincode.Success "")
  | "abort" ->
      with_tx args (fun txid ops ->
          Executor.abort state ~txid ops;
          Chaincode.Success "")
  | other -> Chaincode.Failure ("unknown function " ^ other)

let chaincode = Chaincode.define handler

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

(* ahl_lint: allow R9 — §6.1, Fig. 3a: the UTXO ledger RapidChain's commit runs over *)
type coin_id = int

type coin = { id : coin_id; owner : string; amount : int }

type tx = { inputs : coin_id list; outputs : (string * int) list }

type t = {
  coins : (coin_id, coin) Hashtbl.t;
  spent : (coin_id, unit) Hashtbl.t;
  mutable next_id : int;
}

let create () = { coins = Hashtbl.create 256; spent = Hashtbl.create 256; next_id = 0 }

let fresh t owner amount =
  let id = t.next_id in
  t.next_id <- id + 1;
  let c = { id; owner; amount } in
  Hashtbl.replace t.coins id c;
  c

let mint t ~owner ~amount =
  if amount <= 0 then Repro_util.Invariant.fail "Utxo.mint: amount must be positive";
  fresh t owner amount

let coin t id = Hashtbl.find_opt t.coins id

let is_unspent t id = Hashtbl.mem t.coins id && not (Hashtbl.mem t.spent id)

let apply t tx =
  let distinct = List.sort_uniq Int.compare tx.inputs in
  if List.length distinct <> List.length tx.inputs then Error "duplicate input"
  else begin
    let resolve id =
      if is_unspent t id then Option.to_result ~none:"missing" (coin t id)
      else Error (Printf.sprintf "input %d spent or unknown" id)
    in
    let rec resolve_all acc = function
      | [] -> Ok (List.rev acc)
      | id :: rest -> (
          match resolve id with Ok c -> resolve_all (c :: acc) rest | Error e -> Error e)
    in
    match resolve_all [] tx.inputs with
    | Error e -> Error e
    | Ok coins ->
        let in_total = List.fold_left (fun acc c -> acc + c.amount) 0 coins in
        let out_total = List.fold_left (fun acc (_, v) -> acc + v) 0 tx.outputs in
        if out_total > in_total then Error "outputs exceed inputs"
        else if List.exists (fun (_, v) -> v <= 0) tx.outputs then Error "non-positive output"
        else begin
          List.iter (fun c -> Hashtbl.replace t.spent c.id ()) coins;
          Ok (List.map (fun (owner, amount) -> fresh t owner amount) tx.outputs)
        end
  end

let unspent_of t owner =
  Repro_util.Det.bindings ~compare:Int.compare t.coins
  |> List.filter_map (fun (id, c) ->
         if String.equal c.owner owner && not (Hashtbl.mem t.spent id) then Some c else None)

let balance t owner = List.fold_left (fun acc c -> acc + c.amount) 0 (unspent_of t owner)

let total_unspent t =
  Repro_util.Det.fold ~compare:Int.compare
    (fun id c acc -> if Hashtbl.mem t.spent id then acc else acc + c.amount)
    t.coins 0

module Int_table = Repro_util.Int_table

type state = Started | Preparing of int | Committed | Aborted

type event =
  | Begin of { participants : int list }
  | Prepare_ok of { shard : int }
  | Prepare_not_ok of { shard : int }
  | Client_abort

type decision = No_change | Now_started | Now_committed | Now_aborted

type record = {
  mutable state : state;
  participants : int list; (* distinct, ascending *)
  mutable voted : int list;
}

type t = {
  txs : record Int_table.t;
  early : (int * bool) list Int_table.t;
      (* votes that arrived before the transaction's Begin (the pipelined
         commit path dispatches prepares without waiting for Begin's
         consensus slot), newest first; replayed in canonical shard order
         when the Begin lands *)
  mutable committed : int;
  mutable aborted : int;
}

let create () =
  { txs = Int_table.create 256; early = Int_table.create 64; committed = 0; aborted = 0 }

let state_of t ~txid = Option.map (fun r -> r.state) (Int_table.find_opt t.txs txid)

let early_votes t = Int_table.length t.early

let finish t r outcome =
  r.state <- outcome;
  (match outcome with
  | Committed -> t.committed <- t.committed + 1
  | Aborted -> t.aborted <- t.aborted + 1
  | Started | Preparing _ -> ());
  match outcome with Committed -> Now_committed | _ -> Now_aborted

let apply_vote t r ~shard ~ok =
  match r.state with
  | Preparing remaining
    when List.exists (Int.equal shard) r.participants
         && not (List.exists (Int.equal shard) r.voted) ->
      r.voted <- shard :: r.voted;
      if not ok then finish t r Aborted
      else if remaining <= 1 then finish t r Committed
      else begin
        r.state <- Preparing (remaining - 1);
        No_change
      end
  | Preparing _ | Started | Committed | Aborted -> No_change

let buffer_early t ~txid ~shard ~ok =
  let prior = Option.value (Int_table.find_opt t.early txid) ~default:[] in
  Int_table.replace t.early txid ((shard, ok) :: prior);
  No_change

let step t ~txid event =
  match (Int_table.find_opt t.txs txid, event) with
  | None, Begin { participants } ->
      let distinct = List.sort_uniq Int.compare participants in
      (match distinct with
      | [] -> Repro_util.Invariant.fail "Reference.step: participants must be non-empty"
      | _ :: _ -> ());
      let r = { state = Preparing (List.length distinct); participants = distinct; voted = [] } in
      Int_table.replace t.txs txid r;
      (* Replay buffered early votes in canonical (shard, outcome) order so
         the Begin's net transition is a pure function of the vote *set*;
         the machine is idempotent per shard, so duplicates are inert. *)
      let early = Option.value (Int_table.find_opt t.early txid) ~default:[] in
      Int_table.remove t.early txid;
      let early =
        List.sort_uniq
          (fun (s1, ok1) (s2, ok2) ->
            let c = Int.compare s1 s2 in
            if c <> 0 then c else Bool.compare ok1 ok2)
          early
      in
      List.fold_left
        (fun acc (shard, ok) ->
          match acc with
          | Now_committed | Now_aborted -> acc
          | No_change | Now_started -> (
              match apply_vote t r ~shard ~ok with No_change -> acc | d -> d))
        Now_started early
  | None, Prepare_ok { shard } -> buffer_early t ~txid ~shard ~ok:true
  | None, Prepare_not_ok { shard } -> buffer_early t ~txid ~shard ~ok:false
  | None, Client_abort -> No_change
  | Some _, Begin _ -> No_change
  | Some r, Prepare_ok { shard } -> apply_vote t r ~shard ~ok:true
  | Some r, Prepare_not_ok { shard } -> apply_vote t r ~shard ~ok:false
  | Some r, Client_abort -> (
      match r.state with
      | Preparing _ | Started -> finish t r Aborted
      | Committed | Aborted -> No_change)

let step_batch t steps = List.map (fun (txid, event) -> (txid, step t ~txid event)) steps

let stats t =
  let in_flight = ref 0 in
  Int_table.iter_sorted
    (fun _ r -> match r.state with Preparing _ | Started -> incr in_flight | _ -> ())
    t.txs;
  (!in_flight, t.committed, t.aborted)

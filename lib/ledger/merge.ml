(* Mergeable (commutative) state: typed deltas with a deterministic
   combine, a per-shard lock-free delta lane, and the block-boundary fold
   that materialises deltas into canonical state (DESIGN §18).

   The algebra is the CRDT core of CRDV's conflict-free replicated views
   (SIGMOD 2025): each delta class forms a commutative monoid, so any
   arrival order folds to the same value.  [classify_op] names the
   operations that commute; everything else keeps the 2PC+2PL path. *)

open Repro_crypto
module Str_table = Repro_util.Str_table

type delta = Tx.delta = Add of int | Maxi of int | Union of string list

let canon = function
  | Union elts -> Union (List.sort_uniq String.compare elts)
  | (Add _ | Maxi _) as d -> d

let identity = function Add _ -> Add 0 | Maxi _ -> Maxi min_int | Union _ -> Union []

let combine a b =
  match (a, b) with
  | Add x, Add y -> Some (Add (x + y))
  | Maxi x, Maxi y -> Some (Maxi (Int.max x y))
  | Union x, Union y -> Some (Union (List.sort_uniq String.compare (x @ y)))
  | (Add _ | Maxi _ | Union _), _ -> None

let set_of_data = function "" -> [] | data -> String.split_on_char ',' data

(* A number that is absent or unreadable counts as 0. *)
let apply_delta state key delta =
  match canon delta with
  | Add n -> State.set_int state key (State.get_int state key ~default:0 + n)
  | Maxi n -> State.set_int state key (Int.max (State.get_int state key ~default:0) n)
  | Union elts ->
      let current = Option.value (State.get_data state key) ~default:"" in
      State.put state key
        (String.concat "," (List.sort_uniq String.compare (set_of_data current @ elts)))

(* ---- the classifier: which ops commute ---- *)

(* A credit is an unconditional increment, so credits commute and fold
   as [Add] deltas.  A debit does not commute: its balance-≥-0
   precondition depends on what ran before it.  Blind writes do not
   either (last-write-wins depends on order), and neither do reads. *)
let classify_op = function
  | Tx.Merge { key; delta } -> Some (key, canon delta)
  | Tx.Credit { account; amount } -> Some (account, Add amount)
  | Tx.Put _ | Tx.Get _ | Tx.Debit _ -> None

(* A delta keeps its op's key, so it lands on the shard the op's
   placement already names: the lane needs no hashing of its own. *)
let classify_placement placement =
  let rec deltas acc = function
    | [] -> Some (List.rev acc)
    | op :: rest -> (
        match classify_op op with Some kd -> deltas (kd :: acc) rest | None -> None)
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (shard, ops) :: rest -> (
        match deltas [] ops with Some ds -> go ((shard, ds) :: acc) rest | None -> None)
  in
  match placement with [] -> None | _ -> go [] placement

(* ---- per-shard delta lane ---- *)

type entry = { txid : int; key : string; delta : delta }

type lane = {
  mutable pending : entry list; (* newest first; folded at block boundaries *)
  mutable log_rev : entry list; (* full applied history, for the audit *)
  mutable log_len : int;
  base : string option Str_table.t; (* state value before first delta *)
  mutable folds : int;
  mutable root : Sha256.digest; (* chained digest over every fold *)
}

let lane () =
  {
    pending = [];
    log_rev = [];
    log_len = 0;
    base = Str_table.create 64;
    folds = 0;
    root = Sha256.digest_string "merge-lane-genesis";
  }

let append lane state ~txid ~key delta =
  (match Str_table.find_opt lane.base key with
  | Some _ -> ()
  | None -> Str_table.replace lane.base key (State.get_data state key));
  let e = { txid; key; delta = canon delta } in
  lane.pending <- e :: lane.pending;
  lane.log_rev <- e :: lane.log_rev;
  lane.log_len <- lane.log_len + 1

let depth lane = List.length lane.pending

let log_length lane = lane.log_len

let folds lane = lane.folds

let root lane = lane.root

let delta_token = function
  | Add n -> "add:" ^ string_of_int n
  | Maxi n -> "max:" ^ string_of_int n
  | Union elts -> "union:" ^ String.concat "," elts

(* An entry with its delta token, computed once for sorting and digest. *)
let tokened e = (e, delta_token e.delta)

(* Canonical fold order: by key, then txid, then delta token — no arrival
   component anywhere.  Commutativity makes the folded *values*
   order-independent; the canonical order makes the fold *digest* a pure
   function of the delta set, so every replica chains the same root per
   block no matter how its deltas arrived. *)
let entry_order (a, ta) (b, tb) =
  let c = String.compare a.key b.key in
  if c <> 0 then c
  else
    let c = Int.compare a.txid b.txid in
    if c <> 0 then c else String.compare ta tb

(* The digest covers one ["key|txid|token"] line per entry, concatenated. *)
let fold_into lane state =
  let entries = List.sort entry_order (List.rev_map tokened lane.pending) in
  List.iter (fun (e, _) -> apply_delta state e.key e.delta) entries;
  lane.pending <- [];
  let digest =
    Sha256.digest_concat
      (List.concat_map (fun (e, token) -> [ e.key; "|"; string_of_int e.txid; "|"; token ]) entries)
  in
  lane.root <- Sha256.digest_concat [ Sha256.to_hex lane.root; Sha256.to_hex digest ];
  lane.folds <- lane.folds + 1;
  (List.length entries, digest)

(* ---- convergence audit ---- *)

type mismatch = { mkey : string; expected : string; actual : string }

(* Re-fold the full history for every touched key from its recorded base
   and compare with materialised state.  Call after the final fold: any
   divergence means a delta reached state outside the canonical fold (or a
   fold was skipped/duplicated on this replica). *)
let audit lane state =
  let by_key = Hashtbl.create 32 in
  List.iter
    (fun e ->
      Hashtbl.replace by_key e.key
        (e :: Option.value (Hashtbl.find_opt by_key e.key) ~default:[]))
    lane.log_rev (* newest first; re-sorted canonically below *)
  ;
  Repro_util.Det.fold ~compare:String.compare
    (fun key entries acc ->
      let scratch = State.create () in
      (match Str_table.find_opt lane.base key with
      | Some (Some v) -> State.put scratch key v
      | Some None | None -> ());
      List.iter
        (fun (e, _) -> apply_delta scratch key e.delta)
        (List.sort entry_order (List.map tokened entries));
      let expected = Option.value (State.get_data scratch key) ~default:"" in
      let actual = Option.value (State.get_data state key) ~default:"" in
      if String.equal expected actual then acc
      else { mkey = key; expected; actual } :: acc)
    by_key []
  |> List.sort (fun a b -> String.compare a.mkey b.mkey)

open Repro_crypto
open Repro_sim
open Types
module Idset = Repro_util.Idset
module Int_table = Repro_util.Int_table

type flavour = Tendermint | Ibft

type msg =
  | Req of { req : request; relayed : bool }
  | Proposal of { height : int; round : int; digest : int; batch : request list; proposer : int }
  | Prevote of { height : int; round : int; digest : int; sender : int }
      (** [digest = 0] encodes a nil prevote *)
  | Precommit of { height : int; round : int; digest : int; sender : int }

type replica = {
  index : int;
  mutable height : int;
  mutable round : int;
  mutable locked : (int * request list * int) option; (* digest, batch, round *)
  pool : request Queue.t;
  pooled : unit Int_table.t;
  executed : Idset.t;
  prevotes : Quorum.t; (* view = height, seq = round *)
  precommits : Quorum.t;
  proposals : (int * int, int * request list) Hashtbl.t; (* (height, round) -> digest, batch *)
  mutable proposed_this_round : bool;
  mutable round_deadline : float;
}

type committee = {
  engine : Engine.t;
  keystore : Keys.keystore;
  flavour : flavour;
  n : int;
  f : int;
  commits : Commits.t; (* logged at member 0 *)
  mutable round_changes : int;
  send_cb : src:int -> dst:int -> channel:Inbox.channel -> bytes:int -> msg -> unit;
  charge_cb : member:int -> float -> unit;
  mutable replicas : replica array;
}

let request_channel = Inbox.Request

(* The per-height commit overhead (state persistence, proposer hand-over)
   that, with per-transaction client-signature validation
   ([Config.client_sig_verify]), makes these stacks slower per block than
   pipelined PBFT. *)
let commit_overhead = 0.15

let round_timeout = 1.0

let batch_max = 200 (* requests per proposal *)

let costs = Cost_model.default

let bytes_of_msg = function
  | Req _ -> request_bytes
  | Proposal { batch; _ } -> 160 + batch_bytes batch
  | Prevote _ | Precommit _ -> 160

let quorum c = Quorum.supermajority ~f:c.f

let proposer_of c ~height ~round = (height + round) mod c.n

let now c = Engine.now c.engine

let charge c r cost = c.charge_cb ~member:r.index cost

let send c r ~dst m =
  charge c r 10e-6;
  c.send_cb ~src:r.index ~dst ~channel:Inbox.Consensus ~bytes:(bytes_of_msg m) m

let broadcast c r m =
  for dst = 0 to c.n - 1 do
    if dst <> r.index then send c r ~dst m
  done

let vote_key ~height ~round = (height * 1024) + (round land 1023)

(* The proposer of the current (height, round) assembles a block: its
   locked value if it has one, otherwise a fresh batch from the pool. *)
let rec try_propose c r =
  if proposer_of c ~height:r.height ~round:r.round = r.index && not r.proposed_this_round then begin
    let value =
      match r.locked with
      | Some (digest, batch, _) -> Some (digest, batch)
      | None ->
          (* Drain already-executed entries (committed under another
             proposer) while building the batch. *)
          let batch = ref [] in
          let budget = ref (Queue.length r.pool) in
          while List.length !batch < batch_max && !budget > 0 do
            decr budget;
            let req = Queue.take r.pool in
            if not (Idset.mem r.executed req.req_id) then batch := req :: !batch
          done;
          (match !batch with
          | [] -> None
          | _ :: _ ->
              (* Proposal contents must not depend on pool arrival order:
                 replicas relay requests along different paths, so sort the
                 batch by req_id before it becomes a digest. *)
              let batch =
                List.sort (fun a b -> Int.compare a.req_id b.req_id) !batch
              in
              Some (digest_of_batch batch, batch))
    in
    match value with
    | None -> ()
    | Some (digest, batch) ->
        r.proposed_this_round <- true;
        charge c r
          ((float_of_int (List.length batch) *. Config.client_sig_verify)
          +. costs.Cost_model.ecdsa_sign);
        Hashtbl.replace r.proposals (r.height, r.round) (digest, batch);
        broadcast c r (Proposal { height = r.height; round = r.round; digest; batch; proposer = r.index });
        on_proposal c r ~height:r.height ~round:r.round ~digest ~batch ~charge_batch:false
  end

and prevote c r ~height ~round ~digest =
  charge c r costs.Cost_model.ecdsa_sign;
  broadcast c r (Prevote { height; round; digest; sender = r.index });
  count_prevote c r ~height ~round ~digest ~sender:r.index

and on_proposal c r ~height ~round ~digest ~batch ~charge_batch =
  if charge_batch then
    charge c r
      (costs.Cost_model.ecdsa_verify
      +. (float_of_int (List.length batch) *. Config.client_sig_verify));
  if height = r.height && round = r.round then begin
    Hashtbl.replace r.proposals (height, round) (digest, batch);
    let vote =
      match r.locked with
      | Some (locked_digest, _, _) when locked_digest <> digest -> 0 (* nil: refuse *)
      | Some _ | None -> digest
    in
    prevote c r ~height ~round ~digest:vote
  end

and count_prevote c r ~height ~round ~digest ~sender =
  if height = r.height && digest <> 0 then begin
    let votes =
      Quorum.vote r.prevotes ~view:(vote_key ~height ~round) ~seq:0 ~digest ~member:sender
    in
    if votes >= quorum c then begin
      (* Lock on the value (Tendermint may re-lock a newer value; the IBFT
         defect keeps the first lock forever). *)
      (match Hashtbl.find_opt r.proposals (height, round) with
      | Some (d, batch) when d = digest -> (
          match (c.flavour, r.locked) with
          | _, None -> r.locked <- Some (digest, batch, round)
          | Tendermint, Some (_, _, locked_round) when round >= locked_round ->
              r.locked <- Some (digest, batch, round)
          | Tendermint, Some _ -> ()
          | Ibft, Some _ -> () (* never released: the Quorum defect *))
      | Some _ | None -> ());
      match r.locked with
      | Some (d, _, _) when d = digest ->
          charge c r costs.Cost_model.ecdsa_sign;
          broadcast c r (Precommit { height; round; digest; sender = r.index });
          count_precommit c r ~height ~round ~digest ~sender:r.index
      | Some _ | None -> ()
    end
  end

and count_precommit c r ~height ~round ~digest ~sender =
  if height = r.height && digest <> 0 then begin
    let votes =
      Quorum.vote r.precommits ~view:(vote_key ~height ~round) ~seq:1 ~digest ~member:sender
    in
    if votes >= quorum c then begin
      match batch_for c r ~height ~digest with
      | None -> ()
      | Some batch -> commit c r ~batch
    end
  end

and batch_for _c r ~height ~digest =
  (* The batch may have been delivered in any round of this height, or be
     our locked value. *)
  let from_lock =
    match r.locked with Some (d, batch, _) when d = digest -> Some batch | _ -> None
  in
  match from_lock with
  | Some _ as b -> b
  | None ->
      Repro_util.Det.fold ~compare:Repro_util.Det.int_pair
        (fun (h, _) (d, batch) acc ->
          match acc with
          | Some _ -> acc
          | None -> if h = height && d = digest then Some batch else None)
        r.proposals None

and commit c r ~batch =
  let fresh = List.filter (fun q -> not (Idset.mem r.executed q.req_id)) batch in
  charge c r (commit_overhead +. (float_of_int (List.length fresh) *. costs.Cost_model.tx_execute));
  List.iter
    (fun q ->
      Idset.add r.executed q.req_id;
      Int_table.remove r.pooled q.req_id)
    batch;
  if r.index = 0 then begin
    Commits.commit c.commits ~count:(List.length fresh);
    List.iter (fun q -> Commits.commit_latency c.commits ~submitted:q.submitted) fresh
  end;
  r.height <- r.height + 1;
  r.round <- 0;
  r.locked <- None;
  r.proposed_this_round <- false;
  r.round_deadline <- now c +. round_timeout;
  (* Lockstep: only now may the next height begin. *)
  try_propose c r

let advance_round c r =
  r.round <- r.round + 1;
  r.proposed_this_round <- false;
  r.round_deadline <- now c +. (round_timeout *. (1.0 +. (0.5 *. float_of_int r.round)));
  if r.index = 0 then c.round_changes <- c.round_changes + 1;
  try_propose c r

let handle c ~member m =
  let r = c.replicas.(member) in
  match m with
  | Req { req; relayed } ->
      charge c r 15e-6;
      if (not (Idset.mem r.executed req.req_id)) && not (Int_table.mem r.pooled req.req_id)
      then begin
        Int_table.replace r.pooled req.req_id ();
        Queue.add req r.pool;
        if not relayed then
          for dst = 0 to c.n - 1 do
            if dst <> r.index then begin
              charge c r 10e-6;
              c.send_cb ~src:r.index ~dst ~channel:Inbox.Request
                ~bytes:(bytes_of_msg (Req { req; relayed = true }))
                (Req { req; relayed = true })
            end
          done;
        try_propose c r
      end
  | Proposal { height; round; digest; batch; proposer } ->
      if proposer = proposer_of c ~height ~round then
        on_proposal c r ~height ~round ~digest ~batch ~charge_batch:true
  | Prevote { height; round; digest; sender } ->
      charge c r costs.Cost_model.ecdsa_verify;
      count_prevote c r ~height ~round ~digest ~sender
  | Precommit { height; round; digest; sender } ->
      charge c r costs.Cost_model.ecdsa_verify;
      count_precommit c r ~height ~round ~digest ~sender

let start c =
  Array.iter
    (fun r ->
      r.round_deadline <- now c +. round_timeout;
      let rec watchdog () =
        let has_work = Int_table.length r.pooled > 0 || Option.is_some r.locked in
        if now c > r.round_deadline && has_work then advance_round c r;
        Engine.schedule c.engine ~delay:(round_timeout /. 4.0) watchdog
      in
      Engine.schedule c.engine
        ~delay:(round_timeout /. 4.0 *. (1.0 +. (float_of_int r.index /. float_of_int c.n)))
        watchdog)
    c.replicas

let create ~engine ~keystore ~flavour ~n ~commits ~send ~charge =
  let c =
    {
      engine;
      keystore;
      flavour;
      n;
      f = (n - 1) / 3;
      commits;
      round_changes = 0;
      send_cb = send;
      charge_cb = charge;
      replicas = [||];
    }
  in
  c.replicas <-
    Array.init n (fun index ->
        {
          index;
          height = 0;
          round = 0;
          locked = None;
          pool = Queue.create ();
          pooled = Int_table.create 256;
          executed = Idset.create ();
          prevotes = Quorum.create ~n;
          precommits = Quorum.create ~n;
          proposals = Hashtbl.create 64;
          proposed_this_round = false;
          round_deadline = infinity;
        });
  c

let request req = Req { req; relayed = false }

let height c ~member = c.replicas.(member).height

let round_changes c = c.round_changes

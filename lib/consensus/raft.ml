open Repro_sim
open Types
module Idset = Repro_util.Idset
module Int_table = Repro_util.Int_table

type msg =
  | Req of { req : request; relayed : bool }
  | Append of { term : int; index : int; batch : request list; leader : int }
  | Ack of { term : int; index : int; sender : int }
  | Committed of { term : int; index : int }
  | Heartbeat of { term : int; leader : int }
  | Request_vote of { term : int; candidate : int; last_index : int }
  | Vote of { term : int; sender : int }

type role = Follower | Candidate | Leader

type replica = {
  index : int;
  mutable term : int;
  mutable role : role;
  mutable voted_for : int option;
  mutable votes : int;
  mutable last_index : int;   (* highest log entry stored *)
  mutable commit_index : int; (* highest executed entry *)
  mutable in_flight : (int * request list) option; (* index being replicated *)
  mutable acks : int;
  pool : request Queue.t;
  pooled : unit Int_table.t;
  executed : Idset.t;
  entries : (int, request list) Hashtbl.t;
  mutable election_deadline : float;
  mutable crashed : bool;
}

type cluster = {
  engine : Engine.t;
  n : int;
  commits : Commits.t; (* logged at member 0 *)
  mutable elections : int;
  send_cb : src:int -> dst:int -> channel:Inbox.channel -> bytes:int -> msg -> unit;
  charge_cb : member:int -> float -> unit;
  rng : Repro_util.Rng.t;
  mutable replicas : replica array;
}

let request_channel = Inbox.Request

(* MAC check instead of ECDSA; Quorum's EVM + Merkle-tree execution. *)
let mac_cost = 20e-6

let evm_execute = 1.2e-3

let block_overhead = 0.08

let heartbeat_period = 0.15

let election_timeout_base = 0.6

let batch_max = 200 (* requests per block *)

let bytes_of_msg = function
  | Req _ -> request_bytes
  | Append { batch; _ } -> 120 + batch_bytes batch
  | Ack _ | Committed _ | Heartbeat _ | Request_vote _ | Vote _ -> 120

let majority c = (c.n / 2) + 1

let is_leader r = match r.role with Leader -> true | Follower | Candidate -> false

let is_follower r = match r.role with Follower -> true | Leader | Candidate -> false

let is_candidate r = match r.role with Candidate -> true | Leader | Follower -> false

let now c = Engine.now c.engine

let charge c r cost = c.charge_cb ~member:r.index cost

let send c r ~dst m =
  charge c r 5e-6;
  c.send_cb ~src:r.index ~dst ~channel:Inbox.Consensus ~bytes:(bytes_of_msg m) m

let broadcast c r m =
  for dst = 0 to c.n - 1 do
    if dst <> r.index then send c r ~dst m
  done

let reset_election_deadline c r =
  r.election_deadline <-
    now c +. election_timeout_base +. Repro_util.Rng.float c.rng election_timeout_base

(* Quorum's lockstep: the leader replicates one block at a time. *)
let rec try_replicate c r =
  if is_leader r && Option.is_none r.in_flight && not (Queue.is_empty r.pool) then begin
    let batch = ref [] in
    let count = Int.min batch_max (Queue.length r.pool) in
    for _ = 1 to count do
      batch := Queue.take r.pool :: !batch
    done;
    let batch = List.rev !batch in
    let index = r.last_index + 1 in
    r.last_index <- index;
    r.in_flight <- Some (index, batch);
    r.acks <- 1;
    Hashtbl.replace r.entries index batch;
    charge c r (block_overhead /. 2.0);
    broadcast c r (Append { term = r.term; index; batch; leader = r.index })
  end

and execute c r ~index =
  match Hashtbl.find_opt r.entries index with
  | None -> ()
  | Some batch ->
      if index = r.commit_index + 1 then begin
        let fresh = List.filter (fun q -> not (Idset.mem r.executed q.req_id)) batch in
        charge c r
          ((block_overhead /. 2.0) +. (float_of_int (List.length fresh) *. evm_execute));
        List.iter
          (fun q ->
            Idset.add r.executed q.req_id;
            Int_table.remove r.pooled q.req_id)
          batch;
        if r.index = 0 then begin
          Commits.commit c.commits ~count:(List.length fresh);
          List.iter (fun q -> Commits.commit_latency c.commits ~submitted:q.submitted) fresh
        end;
        r.commit_index <- index
      end

let become_leader c r =
  r.role <- Leader;
  r.in_flight <- None;
  c.elections <- c.elections + 1;
  broadcast c r (Heartbeat { term = r.term; leader = r.index });
  try_replicate c r

let start_election c r =
  r.term <- r.term + 1;
  r.role <- Candidate;
  r.voted_for <- Some r.index;
  r.votes <- 1;
  reset_election_deadline c r;
  charge c r mac_cost;
  broadcast c r (Request_vote { term = r.term; candidate = r.index; last_index = r.last_index });
  if r.votes >= majority c then become_leader c r

let step_down c r ~term =
  if term > r.term then begin
    r.term <- term;
    r.role <- Follower;
    r.voted_for <- None;
    r.in_flight <- None;
    reset_election_deadline c r
  end

let handle c ~member m =
  let r = c.replicas.(member) in
  if r.crashed then ()
  else
    match m with
    | Req { req; relayed } ->
        charge c r 15e-6;
        if (not (Idset.mem r.executed req.req_id)) && not (Int_table.mem r.pooled req.req_id)
        then
          if is_leader r then begin
            Int_table.replace r.pooled req.req_id ();
            Queue.add req r.pool;
            try_replicate c r
          end
          else if not relayed then begin
            (* Forward to the presumed leader: whoever heartbeats. *)
            Int_table.replace r.pooled req.req_id ();
            Queue.add req r.pool
          end
    | Append { term; index; batch; leader } ->
        charge c r (mac_cost +. (float_of_int (List.length batch) *. mac_cost));
        if term >= r.term then begin
          step_down c r ~term;
          reset_election_deadline c r;
          Hashtbl.replace r.entries index batch;
          if index > r.last_index then r.last_index <- index;
          send c r ~dst:leader (Ack { term; index; sender = r.index })
        end
    | Ack { term; index; sender = _ } ->
        charge c r mac_cost;
        if is_leader r && term = r.term then begin
          match r.in_flight with
          | Some (i, _) when i = index ->
              r.acks <- r.acks + 1;
              if r.acks >= majority c then begin
                r.in_flight <- None;
                execute c r ~index;
                broadcast c r (Committed { term; index });
                (* Lockstep: only now is the next block constructed. *)
                try_replicate c r
              end
          | Some _ | None -> ()
        end
    | Committed { term = _; index } ->
        charge c r mac_cost;
        execute c r ~index;
        (* Leftover pool entries at followers drain to the leader lazily:
           followers hand their pool over on heartbeat response (modelled
           by re-queueing through Req forwarding below). *)
        ()
    | Heartbeat { term; leader } ->
        charge c r mac_cost;
        if term >= r.term then begin
          step_down c r ~term;
          if is_follower r then begin
            reset_election_deadline c r;
            (* Forward any pooled requests to the leader. *)
            let count = Int.min 64 (Queue.length r.pool) in
            for _ = 1 to count do
              let req = Queue.take r.pool in
              Int_table.remove r.pooled req.req_id;
              send c r ~dst:leader (Req { req; relayed = true })
            done
          end
        end
    | Request_vote { term; candidate; last_index } ->
        charge c r mac_cost;
        step_down c r ~term;
        if term = r.term && Option.is_none r.voted_for && last_index >= r.last_index then begin
          r.voted_for <- Some candidate;
          reset_election_deadline c r;
          send c r ~dst:candidate (Vote { term; sender = r.index })
        end
    | Vote { term; sender = _ } ->
        charge c r mac_cost;
        if is_candidate r && term = r.term then begin
          r.votes <- r.votes + 1;
          if r.votes >= majority c then become_leader c r
        end

let start c =
  Array.iter
    (fun r ->
      reset_election_deadline c r;
      let rec tick () =
        if not r.crashed then begin
          (match r.role with
          | Leader ->
              broadcast c r (Heartbeat { term = r.term; leader = r.index });
              try_replicate c r
          | Follower | Candidate ->
              if now c > r.election_deadline then start_election c r);
          Engine.schedule c.engine ~delay:heartbeat_period tick
        end
      in
      Engine.schedule c.engine
        ~delay:(heartbeat_period *. (1.0 +. (float_of_int r.index /. float_of_int c.n)))
        tick)
    c.replicas

let create ~engine ~n ~commits ~send ~charge =
  let c =
    {
      engine;
      n;
      commits;
      elections = 0;
      send_cb = send;
      charge_cb = charge;
      rng = Repro_util.Rng.split_named (Engine.rng engine) "raft";
      replicas = [||];
    }
  in
  c.replicas <-
    Array.init n (fun index ->
        {
          index;
          term = 0;
          role = (if index = 0 then Leader else Follower);
          voted_for = None;
          votes = 0;
          last_index = 0;
          commit_index = 0;
          in_flight = None;
          acks = 0;
          pool = Queue.create ();
          pooled = Int_table.create 256;
          executed = Idset.create ();
          entries = Hashtbl.create 256;
          election_deadline = infinity;
          crashed = false;
        });
  c

let request req = Req { req; relayed = false }

let crash c ~member = c.replicas.(member).crashed <- true

let leader_id c =
  let best = ref None in
  Array.iter
    (fun r ->
      if is_leader r && not r.crashed then
        match !best with
        | Some (t, _) when t >= r.term -> ()
        | _ -> best := Some (r.term, r.index))
    c.replicas;
  Option.map snd !best

let committed_index c ~member = c.replicas.(member).commit_index

let elections c = c.elections

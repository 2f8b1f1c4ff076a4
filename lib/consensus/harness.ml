open Repro_util
open Repro_crypto
open Repro_sim
open Types

type workload =
  | Open_loop of { rate : float; clients : int }
  | Closed_loop of { clients : int; outstanding : int }

type result = {
  throughput : float;
  latency_mean : float;
  latency_p50 : float;
  latency_p99 : float;
  committed : int;
  view_changes : int;
  view_change_attempts : int;
  blocks : int;
  consensus_cost_per_block : float;
  execution_cost_per_block : float;
  dropped_requests : int;
  dropped_consensus : int;
  messages_sent : int;
}

let run ?(seed = 1L) ?(duration = 20.0) ?(warmup = 5.0) ?(byzantine = 0) ?adversary
    ?(crashes = []) ?(recovers = []) ?(costs = Cost_model.default)
    ?(tune = fun (c : Config.t) -> c) ?(probe = Repro_obs.Probe.none) ~variant ~n ~topology
    ~workload () =
  let module Probe = Repro_obs.Probe in
  let engine = Engine.create ~seed in
  let cfg = tune (Config.default variant ~n ~topology) in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let commits = Commits.create engine in
  let adversary =
    match adversary with
    | Some a ->
        let ids = List.length a.Pbft.byzantine in
        if byzantine <> 0 && byzantine <> ids then
          Invariant.fail "Harness.run: byzantine count %d disagrees with the adversary's %d ids"
            byzantine ids;
        a
    | None when byzantine = 0 -> Pbft.honest
    | None ->
        if byzantine > n then
          Invariant.fail "Harness.run: byzantine count %d exceeds n %d" byzantine n;
        let perm = Rng.permutation (Rng.split_named (Engine.rng engine) "faults") n in
        let ids = List.init byzantine (Array.get perm) in
        { Pbft.honest with Pbft.byzantine = List.sort Int.compare ids }
  in
  (* Commits are measured at the observer: the lowest honest member, or
     with scheduled crashes the lowest honest member that never crashes
     (the default one may be about to die). *)
  let observer =
    let honest i = not (List.exists (Int.equal i) adversary.Pbft.byzantine) in
    let crashes_at i = List.exists (fun (m, _) -> Int.equal m i) crashes in
    let members = List.init n Fun.id in
    match List.find_opt (fun i -> honest i && not (crashes_at i)) members with
    | Some o -> o
    | None -> Option.value (List.find_opt honest members) ~default:0
  in
  let network : Pbft.msg Network.t = Network.create engine ~topology in
  (* Commits are logged, and closed-loop clients resubmit, when a request
     executes at the observer replica. *)
  let on_commit : (int -> unit) ref = ref (fun _ -> ()) in
  let c, nodes =
    Pbft.spawn network ~keystore ~costs ~config:cfg ~adversary
      ~execute:(fun ~member ~seq:_ batch ->
        if member = observer then begin
          Commits.commit commits ~count:(List.length batch);
          List.iter (fun q -> Commits.commit_latency commits ~submitted:q.submitted) batch;
          List.iter (fun q -> !on_commit q.req_id) batch
        end)
  in
  Network.set_probe network probe;
  Pbft.set_observer c observer;
  Pbft.set_probe c probe;
  List.iter
    (fun (m, at) ->
      Engine.schedule engine ~delay:at (fun () ->
          Probe.instant probe ~time:(Engine.now engine) ~cat:"harness"
            ~node:("r" ^ string_of_int m) "node_crash";
          Pbft.crash c ~member:m))
    crashes;
  (* Scheduled recoveries: the node's inbox reopens and the replica asks
     its peers for the slots it missed (checkpoint catch-up). *)
  List.iter
    (fun (m, at) ->
      Engine.schedule engine ~delay:at (fun () ->
          if Node.is_crashed nodes.(m) then begin
            Probe.instant probe ~time:(Engine.now engine) ~cat:"harness"
              ~node:("r" ^ string_of_int m) "node_recover";
            Pbft.recover c ~member:m
          end))
    recovers;
  Pbft.start c;
  (* Inbox-depth counter series: sample twice a second while enabled, so
     queueing collapses (Fig. 9 saturation, flooding attacks) are visible
     in the trace without per-message event volume. *)
  if Probe.enabled probe then begin
    let rec sample_inboxes () =
      let now = Engine.now engine in
      Array.iter
        (fun node ->
          Probe.counter_sample probe ~time:now
            ~node:("r" ^ string_of_int (Node.id node))
            "inbox_depth"
            (float_of_int (Node.inbox_length node)))
        nodes;
      if now +. 0.5 <= duration then Engine.schedule engine ~delay:0.5 sample_inboxes
    in
    sample_inboxes ()
  end;
  (* ---------------- clients ---------------- *)
  let next_req_id = ref 0 in
  let client_rng = Rng.split_named (Engine.rng engine) "clients" in
  let submit ~client =
    let req_id = !next_req_id in
    incr next_req_id;
    let msg = Pbft.request (Types.request ~req_id ~client ~submitted:(Engine.now engine) ()) in
    let target = client mod n in
    let region = Topology.region_of_node topology target in
    Network.send_external network ~src_region:region ~dst:target ~channel:Pbft.request_channel
      ~bytes:(Pbft.bytes_of_msg msg) msg;
    req_id
  in
  (match workload with
  | Open_loop { rate; clients } ->
      let clients = Int.max 1 clients in
      let per_client = rate /. float_of_int clients in
      for client = 0 to clients - 1 do
        let rng = Rng.split_named client_rng (string_of_int client) in
        let rec arrival () =
          ignore (submit ~client);
          Engine.schedule engine
            ~delay:(Rng.exponential rng ~mean:(1.0 /. per_client))
            arrival
        in
        (* Ramp clients up over the first second so the run does not open
           with one giant synchronized burst. *)
        Engine.schedule engine ~delay:(Rng.float rng 1.0) arrival
      done
  | Closed_loop { clients; outstanding } ->
      let in_flight : (int, int) Hashtbl.t = Hashtbl.create 1024 in
      (* req_id -> client *)
      let rec resubmit client =
        let req_id = submit ~client in
        Hashtbl.replace in_flight req_id client;
        (* BLOCKBENCH-style client timeout: give up on a lost request and
           issue a fresh one, so inbox drops cannot leak the window. *)
        Engine.schedule engine ~delay:10.0 (fun () ->
            if Hashtbl.mem in_flight req_id then begin
              Hashtbl.remove in_flight req_id;
              resubmit client
            end)
      in
      on_commit :=
        (fun req_id ->
          match Hashtbl.find_opt in_flight req_id with
          | None -> ()
          | Some client ->
              Hashtbl.remove in_flight req_id;
              resubmit client);
      for client = 0 to clients - 1 do
        for _ = 1 to outstanding do
          Engine.schedule engine
            ~delay:(Rng.float client_rng 0.05)
            (fun () -> resubmit client)
        done
      done);
  Engine.run engine ~until:duration;
  if Probe.enabled probe then begin
    Probe.set_gauge probe "net.sent" (float_of_int (Network.sent_count network));
    Probe.set_gauge probe "net.delivered" (float_of_int (Network.delivered_count network))
  end;
  (* ---------------- results ---------------- *)
  let latencies = Commits.latency_stats commits in
  let tally = Pbft.tally c in
  let blocks = tally.Pbft.blocks in
  let per_block cost = if blocks = 0 then 0.0 else cost /. float_of_int blocks in
  let dropped channel =
    Array.fold_left (fun acc node -> acc + Node.inbox_dropped node channel) 0 nodes
  in
  {
    throughput = Commits.throughput commits ~warmup;
    latency_mean = Stats.mean latencies;
    latency_p50 = Stats.percentile latencies 50.0;
    latency_p99 = Stats.percentile latencies 99.0;
    committed = Commits.committed commits;
    view_changes = tally.Pbft.view_changes;
    view_change_attempts = tally.Pbft.view_change_attempts;
    blocks;
    consensus_cost_per_block = per_block tally.Pbft.consensus_cost;
    execution_cost_per_block = per_block tally.Pbft.execution_cost;
    dropped_requests = dropped Inbox.Request;
    dropped_consensus = dropped Inbox.Consensus;
    messages_sent = Network.sent_count network;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "tps=%.1f lat(mean/p50/p99)=%.3f/%.3f/%.3f committed=%d blocks=%d vc=%d/%d drops(req/cons)=%d/%d msgs=%d"
    r.throughput r.latency_mean r.latency_p50 r.latency_p99 r.committed r.blocks r.view_changes
    r.view_change_attempts r.dropped_requests r.dropped_consensus r.messages_sent

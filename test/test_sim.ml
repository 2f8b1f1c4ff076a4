open Repro_util
open Repro_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_time_starts_at_zero () =
  let e = Engine.create ~seed:1L in
  check_float "t0" 0.0 (Engine.now e)

let test_engine_event_ordering () =
  let e = Engine.create ~seed:1L in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Engine.run_until_idle e;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_at_same_time () =
  let e = Engine.create ~seed:1L in
  let log = ref [] in
  List.iter (fun i -> Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)) [ 1; 2; 3 ];
  Engine.run_until_idle e;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_clock_advances_to_event_time () =
  let e = Engine.create ~seed:1L in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:2.5 (fun () -> seen := Engine.now e);
  Engine.run_until_idle e;
  check_float "clock at event" 2.5 !seen

let test_engine_run_until_horizon () =
  let e = Engine.create ~seed:1L in
  let fired = ref false in
  Engine.schedule e ~delay:5.0 (fun () -> fired := true);
  Engine.run e ~until:4.0;
  Alcotest.(check bool) "not yet" false !fired;
  check_float "clock at horizon" 4.0 (Engine.now e);
  Engine.run e ~until:6.0;
  Alcotest.(check bool) "now fired" true !fired

(* [run ~until] fires every event at or before the horizon, same-time
   events (including ones scheduled while their time is being processed)
   in FIFO order, keeps later events queued, and ends at [until]. *)
let test_engine_run_until_fifo () =
  let e = Engine.create ~seed:1L in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.schedule e ~delay:1.0 (fun () ->
      note "a" ();
      Engine.schedule e ~delay:0.0 (note "a'"));
  List.iter (fun s -> Engine.schedule e ~delay:1.0 (note s)) [ "b"; "c" ];
  Engine.schedule e ~delay:2.0 (note "at-horizon");
  Engine.schedule_at e ~time:2.5 (note "late-1");
  Engine.schedule_at e ~time:2.5 (note "late-2");
  Engine.run e ~until:2.0;
  Alcotest.(check (list string)) "fired in (time, FIFO) order" [ "a"; "b"; "c"; "a'"; "at-horizon" ]
    (List.rev !log);
  Alcotest.(check int) "later events stay queued" 2 (Engine.pending e);
  Alcotest.(check int) "events processed" 5 (Engine.events_processed e);
  check_float "clock ends at until" 2.0 (Engine.now e);
  Engine.run e ~until:3.0;
  Alcotest.(check (list string)) "late events FIFO" [ "late-1"; "late-2" ]
    (List.filteri (fun i _ -> i >= 5) (List.rev !log));
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_nested_scheduling () =
  let e = Engine.create ~seed:1L in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then Engine.schedule e ~delay:1.0 tick
  in
  Engine.schedule e ~delay:1.0 tick;
  Engine.run e ~until:100.0;
  Alcotest.(check int) "ten ticks" 10 !count;
  check_float "clock at horizon" 100.0 (Engine.now e)

let test_engine_negative_delay_rejected () =
  let e = Engine.create ~seed:1L in
  Alcotest.check_raises "negative delay" (Invariant.Violation "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let test_engine_schedule_at_past_clamps () =
  let e = Engine.create ~seed:1L in
  Engine.schedule e ~delay:2.0 (fun () -> Engine.schedule_at e ~time:0.5 (fun () -> ()));
  Engine.run_until_idle e;
  check_float "clock did not go backwards" 2.0 (Engine.now e)

let test_engine_determinism () =
  let run () =
    let e = Engine.create ~seed:42L in
    let acc = ref [] in
    let rng = Engine.rng e in
    for i = 1 to 20 do
      Engine.schedule e ~delay:(Rng.float rng 10.0) (fun () -> acc := i :: !acc)
    done;
    Engine.run_until_idle e;
    !acc
  in
  Alcotest.(check (list int)) "same schedule twice" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_lan_single_region () =
  let t = Topology.lan () in
  Alcotest.(check int) "one region" 1 (Topology.regions t);
  Alcotest.(check int) "all nodes region 0" 0 (Topology.region_of_node t 17);
  check_float "cluster cpu scale" 1.0 (Topology.cpu_scale t)

let test_topology_gcp_regions () =
  let t = Topology.gcp 8 in
  Alcotest.(check int) "eight regions" 8 (Topology.regions t);
  Alcotest.(check int) "round robin" 3 (Topology.region_of_node t 11);
  check_float "gcp 8 cpu scale" 3.5 (Topology.cpu_scale t);
  check_float "gcp 4 cpu scale" 3.5 (Topology.cpu_scale (Topology.gcp 4))

let test_topology_gcp_bad_count () =
  Alcotest.check_raises "9 regions" (Invariant.Violation "Topology.gcp: regions must be in 1..8")
    (fun () -> ignore (Topology.gcp 9))

let test_topology_latency_positive_and_jittered () =
  let t = Topology.gcp 8 in
  let rng = Rng.create 7L in
  for src = 0 to 7 do
    for dst = 0 to 7 do
      let l = Topology.latency t rng ~src_region:src ~dst_region:dst in
      Alcotest.(check bool) "positive" true (l > 0.0)
    done
  done

let test_topology_wan_slower_than_lan () =
  let t = Topology.gcp 8 in
  let rng = Rng.create 7L in
  let intra = Topology.latency t rng ~src_region:0 ~dst_region:0 in
  let inter = Topology.latency t rng ~src_region:0 ~dst_region:5 in
  Alcotest.(check bool) "asia far from us-west" true (inter > 10.0 *. intra)

let test_topology_table3_matches () =
  (* us-west1-b -> asia-southeast1-b is 150.8 ms in Table 3. *)
  check_float "matrix value" 150.8 Topology.gcp_latency_matrix_ms.(0).(5)

let test_topology_transfer_time () =
  let t = Topology.lan () in
  (* 1 MB over 1 Gbps = 8 ms. *)
  Alcotest.(check (float 1e-6)) "1MB @ 1Gbps" 8.388608e-3
    (Topology.transfer_time t ~bytes:(1024 * 1024))

(* ------------------------------------------------------------------ *)
(* Inbox                                                               *)
(* ------------------------------------------------------------------ *)

let test_inbox_shared_fifo () =
  let q = Inbox.create (Inbox.Shared 10) in
  ignore (Inbox.push q Inbox.Request "r1");
  ignore (Inbox.push q Inbox.Consensus "c1");
  ignore (Inbox.push q Inbox.Request "r2");
  let order = List.init 3 (fun _ -> Inbox.take q) in
  Alcotest.(check (list string)) "FIFO across channels" [ "r1"; "c1"; "r2" ] order

let test_inbox_shared_drops_when_full () =
  let q = Inbox.create (Inbox.Shared 2) in
  Alcotest.(check bool) "1 ok" true (Inbox.push q Inbox.Request "a");
  Alcotest.(check bool) "2 ok" true (Inbox.push q Inbox.Consensus "b");
  Alcotest.(check bool) "3 dropped" false (Inbox.push q Inbox.Consensus "c");
  Alcotest.(check int) "consensus drop counted" 1 (Inbox.dropped q Inbox.Consensus);
  Alcotest.(check int) "request drops zero" 0 (Inbox.dropped q Inbox.Request)

let test_inbox_split_priority () =
  let q = Inbox.create (Inbox.Split { request_cap = 10; consensus_cap = 10 }) in
  ignore (Inbox.push q Inbox.Request "r1");
  ignore (Inbox.push q Inbox.Consensus "c1");
  ignore (Inbox.push q Inbox.Request "r2");
  ignore (Inbox.push q Inbox.Consensus "c2");
  let order = List.init 4 (fun _ -> Inbox.take q) in
  Alcotest.(check (list string)) "consensus first" [ "c1"; "c2"; "r1"; "r2" ] order

let test_inbox_split_request_flood_spares_consensus () =
  (* Optimization 1's whole point. *)
  let q = Inbox.create (Inbox.Split { request_cap = 2; consensus_cap = 2 }) in
  for i = 0 to 9 do
    ignore (Inbox.push q Inbox.Request (Printf.sprintf "r%d" i))
  done;
  Alcotest.(check int) "8 requests dropped" 8 (Inbox.dropped q Inbox.Request);
  Alcotest.(check bool) "consensus unaffected" true (Inbox.push q Inbox.Consensus "c");
  Alcotest.(check int) "no consensus drops" 0 (Inbox.dropped q Inbox.Consensus)

let test_inbox_clear () =
  let q = Inbox.create (Inbox.Shared 10) in
  ignore (Inbox.push q Inbox.Request "x");
  Inbox.clear q;
  Alcotest.(check int) "empty" 0 (Inbox.length q)

let test_inbox_zero_capacity_rejected () =
  Alcotest.check_raises "zero cap" (Invariant.Violation "Inbox.create: capacity must be positive")
    (fun () -> ignore (Inbox.create (Inbox.Shared 0)))

(* ------------------------------------------------------------------ *)
(* Node                                                                *)
(* ------------------------------------------------------------------ *)

let make_node e ?(inbox = Inbox.Shared 100) handler = Node.create e ~id:0 ~inbox_mode:inbox ~handler

let test_node_processes_in_order () =
  let e = Engine.create ~seed:1L in
  let log = ref [] in
  let node = make_node e (fun _ m -> log := m :: !log) in
  ignore (Node.deliver node Inbox.Consensus "a");
  ignore (Node.deliver node Inbox.Consensus "b");
  Engine.run_until_idle e;
  Alcotest.(check (list string)) "in order" [ "a"; "b" ] (List.rev !log)

let test_node_serial_cpu () =
  (* Two messages each costing 1 s: the second completes at t = 2. *)
  let e = Engine.create ~seed:1L in
  let finish = ref [] in
  let node_ref = ref None in
  let node =
    make_node e (fun node _ ->
        Node.charge node 1.0;
        finish := Engine.now e :: !finish)
  in
  node_ref := Some node;
  ignore (Node.deliver node Inbox.Consensus "m1");
  ignore (Node.deliver node Inbox.Consensus "m2");
  Engine.run_until_idle e;
  (* Handlers run at dequeue time: m1 at 0, m2 once the CPU frees at 1. *)
  Alcotest.(check (list (float 1e-9))) "dequeue times" [ 0.0; 1.0 ] (List.rev !finish)

let test_node_charge_from_timer_context () =
  (* Work charged outside a handler still occupies the CPU. *)
  let e = Engine.create ~seed:1L in
  let handled_at = ref 0.0 in
  let node = make_node e (fun _ _ -> handled_at := Engine.now e) in
  Node.charge node 2.0;
  ignore (Node.deliver node Inbox.Consensus "m");
  Engine.run_until_idle e;
  check_float "waited for external work" 2.0 !handled_at

let test_node_crash_drops_messages () =
  let e = Engine.create ~seed:1L in
  let count = ref 0 in
  let node = make_node e (fun _ _ -> incr count) in
  Node.crash node;
  Alcotest.(check bool) "rejected" false (Node.deliver node Inbox.Consensus "m");
  Engine.run_until_idle e;
  Alcotest.(check int) "nothing handled" 0 !count

let test_node_recover_resumes () =
  let e = Engine.create ~seed:1L in
  let count = ref 0 in
  let node = make_node e (fun _ _ -> incr count) in
  Node.crash node;
  ignore (Node.deliver node Inbox.Consensus "lost");
  Node.recover node;
  ignore (Node.deliver node Inbox.Consensus "kept");
  Engine.run_until_idle e;
  Alcotest.(check int) "one handled" 1 !count

let test_node_busy_fraction () =
  let e = Engine.create ~seed:1L in
  let node = make_node e (fun node _ -> Node.charge node 1.0) in
  ignore (Node.deliver node Inbox.Consensus "m");
  Engine.run_until_idle e;
  Engine.run e ~until:4.0;
  Alcotest.(check (float 1e-9)) "1s busy of 4s" 0.25 (Node.busy_fraction node)

(* The CPU clocks: [charge] extends the busy horizon from max(now,
   horizon), [charged] is what is left of it, [busy_fraction] divides all
   charged work by the time since the epoch began, and [recover] restarts
   the epoch, the horizon and the accumulated work together. *)
let test_node_clocks () =
  let e = Engine.create ~seed:1L in
  let node = make_node e (fun _ _ -> ()) in
  Node.charge node 1.5;
  Node.charge node 0.5;
  check_float "charged stacks" 2.0 (Node.charged node);
  Engine.run e ~until:1.0;
  check_float "charged drains with time" 1.0 (Node.charged node);
  check_float "fraction capped at 1" 1.0 (Node.busy_fraction node);
  Engine.run e ~until:4.0;
  check_float "idle: nothing left" 0.0 (Node.charged node);
  check_float "2 s busy of 4 s" 0.5 (Node.busy_fraction node);
  Node.charge node 0.5;
  check_float "charge from an idle CPU starts now" 0.5 (Node.charged node);
  check_float "work counts when charged" 0.625 (Node.busy_fraction node);
  Alcotest.check_raises "negative cost" (Invariant.Violation "Node.charge: negative cost")
    (fun () -> Node.charge node (-0.1));
  check_float "a refused charge changes nothing" 0.5 (Node.charged node);
  Node.charge node 10.0;
  Node.recover node;
  check_float "recover of a live node is a no-op" 10.5 (Node.charged node);
  Node.crash node;
  Engine.run e ~until:10.0;
  Node.recover node;
  check_float "recover resets the horizon" 0.0 (Node.charged node);
  check_float "new epoch, no time elapsed" 0.0 (Node.busy_fraction node);
  Node.charge node 1.0;
  Engine.run e ~until:20.0;
  check_float "1 s busy of the 10 s since the recovery" 0.1 (Node.busy_fraction node);
  Engine.run e ~until:200.0;
  check_float "work before the crash is dropped: 1 s over a 190 s epoch" (1.0 /. 190.0)
    (Node.busy_fraction node)

let test_node_inbox_backpressure () =
  let e = Engine.create ~seed:1L in
  let node =
    Node.create e ~id:0 ~inbox_mode:(Inbox.Shared 2) ~handler:(fun node _ -> Node.charge node 10.0)
  in
  (* First is consumed immediately (CPU busy), then 2 queue, rest drop. *)
  let accepted = List.filter (fun b -> b) (List.init 5 (fun _ -> Node.deliver node Inbox.Consensus "m")) in
  Alcotest.(check int) "three accepted" 3 (List.length accepted);
  Alcotest.(check int) "two dropped" 2 (Node.inbox_dropped node Inbox.Consensus)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

(* Node 1 logs what it receives, node 0 ignores everything. *)
let two_nodes () =
  let e = Engine.create ~seed:1L in
  let net = Network.create e ~topology:(Topology.lan ()) in
  let received, nodes =
    Network.spawn net ~n:2 ~inbox_mode:(Inbox.Shared 100)
      ~handle:(fun received ~member m ->
        if member = 1 then received := (m, Engine.now e) :: !received)
      (fun ~send:_ ~charge:_ -> ref [])
  in
  (e, net, nodes.(0), nodes.(1), received)

let test_network_delivers_with_latency () =
  let e, net, n0, _, received = two_nodes () in
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:100 "hello";
  Engine.run_until_idle e;
  match !received with
  | [ ("hello", at) ] -> Alcotest.(check bool) "positive latency" true (at > 0.0)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_network_unknown_destination_ignored () =
  let e, net, n0, _, _ = two_nodes () in
  Network.send net ~src:n0 ~dst:99 ~channel:Inbox.Consensus ~bytes:100 "void";
  Engine.run_until_idle e;
  Alcotest.(check int) "sent counted" 2 (Network.sent_count net + 1)

let test_network_filter_drop () =
  let e, net, n0, _, received = two_nodes () in
  Network.set_filter net (fun ~src:_ ~dst:_ _ -> Network.Drop);
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:100 "blocked";
  Engine.run_until_idle e;
  Alcotest.(check int) "nothing delivered" 0 (List.length !received);
  Alcotest.(check int) "drop counted" 1 (Network.dropped_in_network net);
  Network.clear_filter net;
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:100 "open";
  Engine.run_until_idle e;
  Alcotest.(check int) "delivered after clear" 1 (List.length !received)

let test_network_filter_delay () =
  let e, net, n0, _, received = two_nodes () in
  Network.set_filter net (fun ~src:_ ~dst:_ _ -> Network.Delay 5.0);
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:100 "slow";
  Engine.run_until_idle e;
  match !received with
  | [ (_, at) ] -> Alcotest.(check bool) "delayed" true (at >= 5.0)
  | _ -> Alcotest.fail "expected one delivery"

let test_network_filter_duplicate () =
  let e, net, n0, _, received = two_nodes () in
  Network.set_filter net (fun ~src:_ ~dst:_ _ ->
      Network.Duplicate { copies = 3; spacing = 1.0 });
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:100 "dup";
  Engine.run_until_idle e;
  Alcotest.(check int) "one send" 1 (Network.sent_count net);
  Alcotest.(check int) "three deliveries" 3 (Network.delivered_count net);
  (match List.rev !received with
  | [ (_, t0); (_, t1); (_, t2) ] ->
      Alcotest.(check (float 1e-9)) "second copy spaced" 1.0 (t1 -. t0);
      Alcotest.(check (float 1e-9)) "third copy spaced" 1.0 (t2 -. t1)
  | _ -> Alcotest.fail "expected three deliveries");
  (* copies is clamped below at 1: a zero-copy duplicate still delivers. *)
  Network.set_filter net (fun ~src:_ ~dst:_ _ ->
      Network.Duplicate { copies = 0; spacing = 0.0 });
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:100 "min";
  Engine.run_until_idle e;
  Alcotest.(check int) "clamped to one copy" 4 (Network.delivered_count net)

let test_network_broadcast_excludes_self () =
  let e = Engine.create ~seed:1L in
  let net = Network.create e ~topology:(Topology.lan ()) in
  let hits, nodes =
    Network.spawn net ~n:3 ~inbox_mode:(Inbox.Shared 10)
      ~handle:(fun hits ~member _ -> hits.(member) <- hits.(member) + 1)
      (fun ~send:_ ~charge:_ -> Array.make 3 0)
  in
  Network.broadcast net ~src:nodes.(0) ~dsts:[ 0; 1; 2 ] ~channel:Inbox.Consensus ~bytes:10 "b";
  Engine.run_until_idle e;
  Alcotest.(check (array int)) "others only" [| 0; 1; 1 |] hits

let test_network_spawn () =
  (* Members are indexed from 0 but live at node ids [base ..]; every
     charge is scaled by the topology's CPU scale (3.5 on GCP). *)
  let e = Engine.create ~seed:1L in
  let net = Network.create e ~topology:(Topology.gcp 8) in
  let (send, charge, received), nodes =
    Network.spawn net ~base:3 ~n:2 ~inbox_mode:(Inbox.Shared 10)
      ~handle:(fun (_, _, received) ~member m ->
        received := (member, m, Engine.now e) :: !received)
      (fun ~send ~charge -> (send, charge, ref []))
  in
  Alcotest.(check (array int)) "node ids" [| 3; 4 |] (Array.map Node.id nodes);
  send ~src:0 ~dst:1 ~channel:Inbox.Consensus ~bytes:10 "to member 1";
  Engine.run_until_idle e;
  (match !received with
  | [ (1, "to member 1", _) ] -> ()
  | _ -> Alcotest.fail "expected one delivery to member 1");
  Network.send_external net ~src_region:0 ~dst:4 ~channel:Inbox.Consensus ~bytes:10 "to node 4";
  Engine.run_until_idle e;
  (match !received with
  | (1, "to node 4", _) :: _ -> ()
  | _ -> Alcotest.fail "node 4 is member 1");
  let start = Engine.now e in
  charge ~member:0 0.5;
  check_float "busy for 3.5 times the charge" 1.75 (Node.charged nodes.(0));
  ignore (Node.deliver nodes.(0) Inbox.Consensus "queued");
  Engine.run_until_idle e;
  match !received with
  | (0, "queued", at) :: _ -> check_float "handled once the CPU frees" (start +. 1.75) at
  | _ -> Alcotest.fail "expected member 0 to handle the queued message"

let test_network_send_external () =
  let e, net, _, _, received = two_nodes () in
  Network.send_external net ~src_region:0 ~dst:1 ~channel:Inbox.Request ~bytes:10 "client";
  Engine.run_until_idle e;
  Alcotest.(check int) "delivered" 1 (List.length !received)

let test_network_duplicate_registration () =
  let e = Engine.create ~seed:1L in
  let net = Network.create e ~topology:(Topology.lan ()) in
  let n = Node.create e ~id:0 ~inbox_mode:(Inbox.Shared 10) ~handler:(fun _ (_ : int) -> ()) in
  Network.register net n;
  Alcotest.check_raises "dup" (Invariant.Violation "Network.register: duplicate node id") (fun () ->
      Network.register net n)

(* The node table is an array indexed by id: ids past its end, holes
   inside it and negative ids are all absent destinations. *)
let test_network_absent_destinations () =
  let e, net, n0, _, received = two_nodes () in
  List.iter
    (fun dst -> Network.send net ~src:n0 ~dst ~channel:Inbox.Consensus ~bytes:10 "void")
    [ 1_000_000; 10; -1 ];
  Network.send_external net ~src_region:0 ~dst:(-7) ~channel:Inbox.Request ~bytes:10 "void";
  Engine.run_until_idle e;
  Alcotest.(check int) "every send counted" 4 (Network.sent_count net);
  Alcotest.(check int) "nothing delivered" 0 (Network.delivered_count net);
  Alcotest.(check int) "not a filter drop" 0 (Network.dropped_in_network net);
  Alcotest.(check int) "no handler ran" 0 (List.length !received)

let test_network_register_far_id () =
  let e, net, n0, _, _ = two_nodes () in
  let hits = ref 0 in
  let far = Node.create e ~id:100_000 ~inbox_mode:(Inbox.Shared 10) ~handler:(fun _ _ -> incr hits) in
  Network.register net far;
  Network.send net ~src:n0 ~dst:100_000 ~channel:Inbox.Consensus ~bytes:10 "far";
  Network.send net ~src:far ~dst:99_999 ~channel:Inbox.Consensus ~bytes:10 "hole";
  Engine.run_until_idle e;
  Alcotest.(check int) "far node reached" 1 !hits;
  Alcotest.(check int) "hole below it absent" 1 (Network.delivered_count net);
  Alcotest.check_raises "dup past the old capacity"
    (Invariant.Violation "Network.register: duplicate node id")
    (fun () -> Network.register net far);
  let neg = Node.create e ~id:(-1) ~inbox_mode:(Inbox.Shared 10) ~handler:(fun _ _ -> ()) in
  Alcotest.check_raises "negative id" (Invariant.Violation "Network.register: negative node id")
    (fun () -> Network.register net neg)

(* ------------------------------------------------------------------ *)
(* Commits                                                             *)
(* ------------------------------------------------------------------ *)

let test_commits_throughput () =
  let e = Engine.create ~seed:1L in
  let m = Commits.create e in
  Engine.schedule e ~delay:5.0 (fun () -> Commits.commit m ~count:100);
  Engine.schedule e ~delay:10.0 (fun () -> Commits.commit m ~count:100);
  Engine.run e ~until:20.0;
  check_float "after warmup" 10.0 (Commits.throughput m ~warmup:0.0);
  (* Warmup at 6 s excludes the first batch. *)
  Alcotest.(check (float 1e-6)) "warmup excludes" (100.0 /. 14.0) (Commits.throughput m ~warmup:6.0)

let test_commits_abort_rate () =
  let e = Engine.create ~seed:1L in
  let m = Commits.create e in
  Commits.commit m ~count:3;
  Commits.abort m ~count:1;
  check_float "abort rate" 0.25 (Commits.abort_rate m)

let test_topology_constrained_lan () =
  let t = Topology.constrained_lan ~latency_ms:100.0 ~bandwidth_mbps:50.0 in
  let rng = Rng.create 1L in
  let l = Topology.latency t rng ~src_region:0 ~dst_region:0 in
  Alcotest.(check bool) "around 100ms" true (l > 0.08 && l < 0.12);
  (* 4 MB at 50 Mbps ~ 0.67 s *)
  Alcotest.(check (float 0.02)) "transfer" 0.671
    (Topology.transfer_time t ~bytes:(4 * 1024 * 1024));
  check_float "cluster machines" 1.0 (Topology.cpu_scale t)

let test_commits_throughput_series () =
  let e = Engine.create ~seed:1L in
  let m = Commits.create e in
  Engine.schedule e ~delay:0.5 (fun () -> Commits.commit m ~count:10);
  Engine.schedule e ~delay:2.5 (fun () -> Commits.commit m ~count:30);
  Engine.run e ~until:5.0;
  match Commits.throughput_series m with
  | [ (t0, r0); (t1, r1); (t2, r2) ] ->
      Alcotest.(check (float 1e-9)) "bin0 start" 0.0 t0;
      Alcotest.(check (float 1e-9)) "bin0 rate" 10.0 r0;
      Alcotest.(check (float 1e-9)) "bin1 start" 1.0 t1;
      Alcotest.(check (float 1e-9)) "bin1 empty" 0.0 r1;
      Alcotest.(check (float 1e-9)) "bin2 rate" 30.0 r2;
      ignore t2
  | other -> Alcotest.fail (Printf.sprintf "unexpected series length %d" (List.length other))

let test_network_counters () =
  let e, net, n0, _, _ = two_nodes () in
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:10 "a";
  Network.send net ~src:n0 ~dst:1 ~channel:Inbox.Consensus ~bytes:10 "b";
  Engine.run_until_idle e;
  Alcotest.(check int) "sent" 2 (Network.sent_count net);
  Alcotest.(check int) "delivered" 2 (Network.delivered_count net);
  Alcotest.(check bool) "events counted" true (Engine.events_processed e >= 2)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_engine_events_fire_in_order =
  QCheck.Test.make ~name:"events always fire in nondecreasing time order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
    (fun delays ->
      let e = Engine.create ~seed:3L in
      let ok = ref true in
      let last = ref 0.0 in
      List.iter
        (fun d ->
          Engine.schedule e ~delay:d (fun () ->
              if Engine.now e < !last then ok := false;
              last := Engine.now e))
        delays;
      Engine.run_until_idle e;
      !ok)

let prop_inbox_never_exceeds_capacity =
  QCheck.Test.make ~name:"shared inbox never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 20) (list (int_bound 1)))
    (fun (cap, pushes) ->
      let q = Inbox.create (Inbox.Shared cap) in
      List.for_all
        (fun c ->
          let channel = if c = 0 then Inbox.Request else Inbox.Consensus in
          ignore (Inbox.push q channel ());
          Inbox.length q <= cap)
        pushes)

(* The ring-buffer inbox against a model of [Stdlib.Queue]s: one queue
   of messages for Shared, one per channel for Split with consensus
   served first.  Caps up to 40 and runs of up to 400 ops make
   the rings wrap, grow past 16 and 32, tail-drop at capacity, and get
   reused after [clear]. *)
type inbox_op = Push of Inbox.channel | Take | Clear

let prop_inbox_matches_queue_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, return (Push Inbox.Request));
          (4, return (Push Inbox.Consensus));
          (6, return Take);
          (1, return Clear);
        ])
  in
  let mode =
    QCheck.Gen.(
      oneof
        [
          map (fun cap -> Inbox.Shared cap) (1 -- 40);
          map2
            (fun request_cap consensus_cap -> Inbox.Split { request_cap; consensus_cap })
            (1 -- 40) (1 -- 40);
        ])
  in
  QCheck.Test.make ~name:"inbox matches a Queue model" ~count:300
    (QCheck.make QCheck.Gen.(pair mode (list_size (0 -- 400) op)))
    (fun (mode, ops) ->
      let q = Inbox.create mode in
      let shared = Queue.create () and requests = Queue.create () and consensus = Queue.create () in
      let dropped_r = ref 0 and dropped_c = ref 0 and next = ref 0 in
      let model_push channel msg =
        let fits queue cap =
          if Queue.length queue >= cap then false
          else begin
            Queue.add msg queue;
            true
          end
        in
        let ok =
          match (mode, channel) with
          | Inbox.Shared cap, _ -> fits shared cap
          | Inbox.Split { request_cap; _ }, Inbox.Request -> fits requests request_cap
          | Inbox.Split { consensus_cap; _ }, Inbox.Consensus -> fits consensus consensus_cap
        in
        if not ok then incr (match channel with Inbox.Request -> dropped_r | Inbox.Consensus -> dropped_c);
        ok
      in
      let model_take () =
        match mode with
        | Inbox.Shared _ -> Queue.take_opt shared
        | Inbox.Split _ -> (
            match Queue.take_opt consensus with
            | Some _ as head -> head
            | None -> Queue.take_opt requests)
      in
      let model_length () = Queue.length shared + Queue.length requests + Queue.length consensus in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push channel ->
                let msg = !next in
                incr next;
                Inbox.push q channel msg = model_push channel msg
            | Take -> (
                match model_take () with
                | Some msg -> Inbox.take q = msg
                | None -> (
                    match Inbox.take q with
                    | _ -> false
                    | exception Invariant.Violation _ -> true))
            | Clear ->
                Inbox.clear q;
                Queue.clear shared;
                Queue.clear requests;
                Queue.clear consensus;
                true
          in
          ok
          && Inbox.length q = model_length ()
          && Inbox.dropped q Inbox.Request = !dropped_r
          && Inbox.dropped q Inbox.Consensus = !dropped_c)
        ops)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_engine_events_fire_in_order;
      prop_inbox_never_exceeds_capacity;
      prop_inbox_matches_queue_model;
    ]

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "starts at zero" `Quick test_engine_time_starts_at_zero;
          Alcotest.test_case "event ordering" `Quick test_engine_event_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances_to_event_time;
          Alcotest.test_case "horizon" `Quick test_engine_run_until_horizon;
          Alcotest.test_case "run until: FIFO, queued, clock" `Quick test_engine_run_until_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_rejected;
          Alcotest.test_case "past schedule clamps" `Quick test_engine_schedule_at_past_clamps;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
        ] );
      ( "topology",
        [
          Alcotest.test_case "lan single region" `Quick test_topology_lan_single_region;
          Alcotest.test_case "gcp regions" `Quick test_topology_gcp_regions;
          Alcotest.test_case "gcp bad count" `Quick test_topology_gcp_bad_count;
          Alcotest.test_case "latency positive" `Quick test_topology_latency_positive_and_jittered;
          Alcotest.test_case "wan slower" `Quick test_topology_wan_slower_than_lan;
          Alcotest.test_case "table 3 values" `Quick test_topology_table3_matches;
          Alcotest.test_case "transfer time" `Quick test_topology_transfer_time;
          Alcotest.test_case "constrained lan" `Quick test_topology_constrained_lan;
        ] );
      ( "inbox",
        [
          Alcotest.test_case "shared FIFO" `Quick test_inbox_shared_fifo;
          Alcotest.test_case "shared drops when full" `Quick test_inbox_shared_drops_when_full;
          Alcotest.test_case "split priority" `Quick test_inbox_split_priority;
          Alcotest.test_case "flood spares consensus" `Quick
            test_inbox_split_request_flood_spares_consensus;
          Alcotest.test_case "clear" `Quick test_inbox_clear;
          Alcotest.test_case "zero capacity" `Quick test_inbox_zero_capacity_rejected;
        ] );
      ( "node",
        [
          Alcotest.test_case "in order" `Quick test_node_processes_in_order;
          Alcotest.test_case "serial CPU" `Quick test_node_serial_cpu;
          Alcotest.test_case "timer-context charge" `Quick test_node_charge_from_timer_context;
          Alcotest.test_case "crash drops" `Quick test_node_crash_drops_messages;
          Alcotest.test_case "recover resumes" `Quick test_node_recover_resumes;
          Alcotest.test_case "busy fraction" `Quick test_node_busy_fraction;
          Alcotest.test_case "inbox backpressure" `Quick test_node_inbox_backpressure;
          Alcotest.test_case "clocks" `Quick test_node_clocks;
        ] );
      ( "network",
        [
          Alcotest.test_case "latency delivery" `Quick test_network_delivers_with_latency;
          Alcotest.test_case "unknown destination" `Quick test_network_unknown_destination_ignored;
          Alcotest.test_case "filter drop" `Quick test_network_filter_drop;
          Alcotest.test_case "filter delay" `Quick test_network_filter_delay;
          Alcotest.test_case "filter duplicate" `Quick test_network_filter_duplicate;
          Alcotest.test_case "broadcast excludes self" `Quick test_network_broadcast_excludes_self;
          Alcotest.test_case "external sender" `Quick test_network_send_external;
          Alcotest.test_case "spawn offsets ids and scales charges" `Quick test_network_spawn;
          Alcotest.test_case "duplicate registration" `Quick test_network_duplicate_registration;
          Alcotest.test_case "absent destinations" `Quick test_network_absent_destinations;
          Alcotest.test_case "register far above capacity" `Quick test_network_register_far_id;
        ] );
      ( "faults+metrics",
        [
          Alcotest.test_case "throughput" `Quick test_commits_throughput;
          Alcotest.test_case "abort rate" `Quick test_commits_abort_rate;
          Alcotest.test_case "throughput series" `Quick test_commits_throughput_series;
          Alcotest.test_case "network counters" `Quick test_network_counters;
        ] );
      ("properties", qsuite);
    ]

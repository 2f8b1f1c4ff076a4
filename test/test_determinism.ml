(* Regression test for R1 (determinism): two harness runs with the same
   seed must produce bit-identical metrics.  This is the end-to-end
   guarantee the static rules in ahl_lint protect — if any hash-order
   iteration or wall-clock read sneaks back into lib/, this test is the
   first dynamic tripwire. *)

open Repro_sim
open Repro_consensus

let small_run ~seed =
  Harness.run ~seed ~duration:3.0 ~warmup:0.5 ~variant:Config.ahl_plus ~n:4
    ~topology:(Topology.lan ())
    ~workload:(Harness.Open_loop { rate = 200.0; clients = 8 })
    ()

let check_identical (a : Harness.result) (b : Harness.result) =
  let f = Alcotest.(check (float 0.0)) in
  let i = Alcotest.(check int) in
  f "throughput" a.throughput b.throughput;
  f "latency_mean" a.latency_mean b.latency_mean;
  f "latency_p50" a.latency_p50 b.latency_p50;
  f "latency_p99" a.latency_p99 b.latency_p99;
  i "committed" a.committed b.committed;
  i "view_changes" a.view_changes b.view_changes;
  i "view_change_attempts" a.view_change_attempts b.view_change_attempts;
  i "blocks" a.blocks b.blocks;
  f "consensus_cost_per_block" a.consensus_cost_per_block b.consensus_cost_per_block;
  f "execution_cost_per_block" a.execution_cost_per_block b.execution_cost_per_block;
  i "dropped_requests" a.dropped_requests b.dropped_requests;
  i "dropped_consensus" a.dropped_consensus b.dropped_consensus;
  i "messages_sent" a.messages_sent b.messages_sent

let test_same_seed_same_metrics () =
  let a = small_run ~seed:7L in
  let b = small_run ~seed:7L in
  check_identical a b

let test_run_produces_work () =
  (* Guard against the replay being vacuous: the scenario must commit. *)
  let r = small_run ~seed:7L in
  Alcotest.(check bool) "committed transactions" true (r.Harness.committed > 0)

(* Golden renders in figure_snapshot/, recorded at jobs=1: each figure the
   parallel-runner tests render must also equal its committed bytes (and,
   where a hub records it, its committed metrics artifact), so a change
   that moves any simulated number fails here even when it is
   worker-count invariant. *)
let golden file =
  In_channel.with_open_bin (Filename.concat "figure_snapshot" file) In_channel.input_all

let check_golden ?metrics id rendered =
  Alcotest.(check string) (id ^ " equals its golden render") (golden (id ^ ".txt")) rendered;
  Option.iter
    (fun m ->
      Alcotest.(check bool)
        (id ^ " metrics artifact equals its golden")
        true
        (String.equal (golden ("METRICS_" ^ id ^ ".json")) m))
    metrics

(* The parallel runner's contract: a figure rendered with 4 worker domains
   is bit-for-bit the figure rendered sequentially — and so are the trace
   and metrics artifacts an installed observability hub records while it
   runs.  Caches are dropped between runs so both actually recompute every
   datapoint. *)
let test_parallel_join_bit_identical () =
  let open Repro_core in
  let render jobs =
    Experiment.set_jobs jobs;
    Experiment.reset_caches ();
    let hub = Repro_obs.Hub.create () in
    Experiment.set_hub (Some hub);
    let rendered = Results.render (Experiment.fig10 ~quick:true ()) in
    Experiment.set_hub None;
    ( rendered,
      Repro_obs.Sink.chrome_json (Repro_obs.Hub.traces hub),
      Repro_obs.Sink.metrics_json (Repro_obs.Hub.metrics hub) )
  in
  let sequential, trace1, metrics1 = render 1 in
  let parallel, trace4, metrics4 = render 4 in
  Experiment.set_jobs 1 (* join the 4 worker domains *);
  Alcotest.(check string) "jobs=4 output equals jobs=1 output" sequential parallel;
  check_golden "fig10" ~metrics:metrics1 sequential;
  Alcotest.(check bool) "figure is non-trivial" true (String.length sequential > 200);
  Alcotest.(check bool) "jobs=4 trace is byte-identical" true (String.equal trace1 trace4);
  Alcotest.(check bool) "jobs=4 metrics are byte-identical" true (String.equal metrics1 metrics4);
  Alcotest.(check bool) "trace is non-trivial" true (String.length trace1 > 10_000)

(* Same contract for fig13, which now runs the batched + pipelined commit
   path by default: batch ids, flush timing, and sub-batch scheduling must
   all be pure functions of the seeded event order, so the rendered figure
   is byte-identical for any worker count. *)
let test_fig13_parallel_bit_identical () =
  let open Repro_core in
  let render jobs =
    Experiment.set_jobs jobs;
    Experiment.reset_caches ();
    Results.render (Experiment.fig13 ~quick:true ())
  in
  let sequential = render 1 in
  let parallel = render 4 in
  Experiment.set_jobs 1;
  Alcotest.(check string) "jobs=4 fig13 equals jobs=1" sequential parallel;
  check_golden "fig13" sequential;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "flattened variant is plotted" true (contains sequential "AHL+;flat")

(* Fig. 12 runs literal committee swaps: crash, reset, snapshot transfer,
   checkpoint catch-up.  All of that rides the seeded engine, so the
   rendered figure and the metrics artifact (which carries the ckpt.*
   fetch counters and transfer histograms) must be byte-identical however
   many worker domains render them. *)
let test_fig12_parallel_bit_identical () =
  let open Repro_core in
  let render jobs =
    Experiment.set_jobs jobs;
    Experiment.reset_caches ();
    let hub = Repro_obs.Hub.create () in
    Experiment.set_hub (Some hub);
    let rendered = Results.render (Experiment.fig12 ~quick:true ()) in
    Experiment.set_hub None;
    (rendered, Repro_obs.Sink.metrics_json (Repro_obs.Hub.metrics hub))
  in
  let sequential, metrics1 = render 1 in
  let parallel, metrics4 = render 4 in
  Experiment.set_jobs 1;
  Alcotest.(check string) "jobs=4 fig12 equals jobs=1" sequential parallel;
  check_golden "fig12" ~metrics:metrics1 sequential;
  Alcotest.(check bool) "jobs=4 metrics artifact is byte-identical" true
    (String.equal metrics1 metrics4);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "checkpoint catch-up counters exported" true
    (contains metrics1 "ckpt.fetch")

(* Fig. 16's attack panel now runs byzantine members that win the leader
   slot and stall it.  The storm of view changes — campaign votes, backoff
   doubling, capped deadlines — must still be a pure function of the
   seeded event order, so both the rendered figure and the metrics
   artifact (carrying the pbft.vc.reason.* counters the attack fires) are
   byte-identical for any worker count. *)
let test_fig16_parallel_bit_identical () =
  let open Repro_core in
  let render jobs =
    Experiment.set_jobs jobs;
    Experiment.reset_caches ();
    let hub = Repro_obs.Hub.create () in
    Experiment.set_hub (Some hub);
    let rendered = Results.render (Experiment.fig16 ~quick:true ()) in
    Experiment.set_hub None;
    (rendered, Repro_obs.Sink.metrics_json (Repro_obs.Hub.metrics hub))
  in
  let sequential, metrics1 = render 1 in
  let parallel, metrics4 = render 4 in
  Experiment.set_jobs 1;
  Alcotest.(check string) "jobs=4 fig16 equals jobs=1" sequential parallel;
  check_golden "fig16" ~metrics:metrics1 sequential;
  Alcotest.(check bool) "jobs=4 metrics artifact is byte-identical" true
    (String.equal metrics1 metrics4);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "view-change reason counters exported" true
    (contains metrics1 "pbft.vc.reason")

(* Fig. 13-fastlane interleaves lane-on and lane-off cells: lane appends,
   block-boundary folds, and the chained merge roots must all be pure
   functions of the seeded event order — plus the hub artifacts, which now
   carry the merge.* counters and fold-depth histograms. *)
let test_fig13_fastlane_parallel_bit_identical () =
  let open Repro_core in
  let render jobs =
    Experiment.set_jobs jobs;
    Experiment.reset_caches ();
    let hub = Repro_obs.Hub.create () in
    Experiment.set_hub (Some hub);
    let rendered = Results.render (Experiment.fig13_fastlane ~quick:true ()) in
    Experiment.set_hub None;
    (rendered, Repro_obs.Sink.metrics_json (Repro_obs.Hub.metrics hub))
  in
  let sequential, metrics1 = render 1 in
  let parallel, metrics4 = render 4 in
  Experiment.set_jobs 1;
  Alcotest.(check string) "jobs=4 fig13_fastlane equals jobs=1" sequential parallel;
  check_golden "fig13_fastlane" ~metrics:metrics1 sequential;
  Alcotest.(check bool) "jobs=4 metrics artifact is byte-identical" true
    (String.equal metrics1 metrics4);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "lane counters exported" true (contains metrics1 "merge.lane_hits");
  Alcotest.(check bool) "lane-on columns plotted" true (contains sequential "lane on")

let () =
  Alcotest.run "determinism"
    [
      ( "harness-replay",
        [
          Alcotest.test_case "same seed, identical metrics" `Quick test_same_seed_same_metrics;
          Alcotest.test_case "scenario is non-trivial" `Quick test_run_produces_work;
        ] );
      ( "parallel-runner",
        [
          Alcotest.test_case "worker count does not change output" `Slow
            test_parallel_join_bit_identical;
          Alcotest.test_case "fig13 batched path is worker-count invariant" `Slow
            test_fig13_parallel_bit_identical;
          Alcotest.test_case "fig12 committee swaps are worker-count invariant" `Slow
            test_fig12_parallel_bit_identical;
          Alcotest.test_case "fig16 leader-stall attacks are worker-count invariant" `Slow
            test_fig16_parallel_bit_identical;
          Alcotest.test_case "fig13_fastlane merge folds are worker-count invariant" `Slow
            test_fig13_fastlane_parallel_bit_identical;
        ] );
    ]

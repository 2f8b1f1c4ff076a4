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
   where one is committed, its metrics artifact), so a change
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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The parallel runner's contract: a figure rendered with 4 worker domains
   is bit-for-bit the figure rendered sequentially — and so are the
   metrics artifact (and, with [trace], the trace) its recording hub
   holds.  [Experiment.record] drops the caches, so both runs actually
   recompute every datapoint.  [metrics_golden] says whether the metrics
   artifact has a golden to match.  Each needle [(what, artifact, sub)]
   must appear in the jobs=1 rendered figure or metrics artifact. *)
let worker_count_invariant ~metrics_golden ?(trace = false) id needles () =
  let open Repro_core in
  let figure =
    match Experiment.by_id id with
    | Some f -> f
    | None -> Alcotest.failf "%s is not a registered figure" id
  in
  let render jobs =
    Experiment.set_jobs jobs;
    let fig, h = Experiment.record figure ~quick:true in
    let rendered = Results.render fig in
    ( rendered,
      (if trace then Repro_obs.Sink.chrome_json (Repro_obs.Hub.traces h) else ""),
      Repro_obs.Sink.metrics_json (Repro_obs.Hub.metrics h) )
  in
  let sequential, trace1, metrics1 = render 1 in
  let parallel, trace4, metrics4 = render 4 in
  Experiment.set_jobs 1 (* join the 4 worker domains *);
  Alcotest.(check string) (Printf.sprintf "jobs=4 %s equals jobs=1" id) sequential parallel;
  check_golden id ?metrics:(if metrics_golden then Some metrics1 else None) sequential;
  Alcotest.(check bool) "figure is non-trivial" true (String.length sequential > 200);
  Alcotest.(check bool) "jobs=4 metrics artifact is byte-identical" true
    (String.equal metrics1 metrics4);
  if trace then begin
    Alcotest.(check bool) "jobs=4 trace is byte-identical" true (String.equal trace1 trace4);
    Alcotest.(check bool) "trace is non-trivial" true (String.length trace1 > 10_000)
  end;
  List.iter
    (fun (what, artifact, sub) ->
      let s = match artifact with `Figure -> sequential | `Metrics -> metrics1 in
      Alcotest.(check bool) what true (contains s sub))
    needles

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
            (worker_count_invariant ~metrics_golden:true ~trace:true "fig10" []);
          (* The batched + pipelined commit path: batch ids, flush timing
             and sub-batch scheduling are pure functions of the seeded
             event order. *)
          Alcotest.test_case "fig13 batched path is worker-count invariant" `Slow
            (worker_count_invariant ~metrics_golden:false "fig13"
               [ ("flattened variant is plotted", `Figure, "AHL+;flat") ]);
          (* Literal committee swaps: crash, reset, snapshot transfer and
             checkpoint catch-up all ride the seeded engine. *)
          Alcotest.test_case "fig12 committee swaps are worker-count invariant" `Slow
            (worker_count_invariant ~metrics_golden:true "fig12"
               [ ("checkpoint catch-up counters exported", `Metrics, "ckpt.fetch") ]);
          (* Byzantine members that win the leader slot and stall it: the
             view-change storm (campaign votes, backoff doubling, capped
             deadlines) is still a pure function of the event order. *)
          Alcotest.test_case "fig16 leader-stall attacks are worker-count invariant" `Slow
            (worker_count_invariant ~metrics_golden:true "fig16"
               [ ("view-change reason counters exported", `Metrics, "pbft.vc.reason") ]);
          (* Lane-on and lane-off cells interleave: lane appends,
             block-boundary folds and chained merge roots must not depend
             on scheduling. *)
          Alcotest.test_case "fig13_fastlane merge folds are worker-count invariant" `Slow
            (worker_count_invariant ~metrics_golden:true "fig13_fastlane"
               [
                 ("lane counters exported", `Metrics, "merge.lane_hits");
                 ("lane-on columns plotted", `Figure, "lane on");
               ]);
        ] );
    ]

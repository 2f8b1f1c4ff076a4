(* ahl_trace: replay an experiment or an ahl_check witness with the
   observability probes enabled and export the recording.

   Usage: ahl_trace ID [--quick] [--jobs J]
            [--trace out.json] [--jsonl out.jsonl] [--metrics out.json]
            [--summary] [--print]
          ahl_trace --witness "x1 txs=2 ..." [--engine-seed S]
            [--mode ref|client|flat] [--concurrency 2pl|waitdie]
            [--shards K] [--committee N] [--trace out.json] ...

   ID is any experiment id from `ahl_cli experiment --list` (fig10,
   fig13, ...).  The trace artifact is Chrome trace-event JSON — open it
   at chrome://tracing or https://ui.perfetto.dev.  Every run is a
   deterministic simulation and probe names derive from run parameters,
   so artifacts are byte-identical for any --jobs count.

   Exit codes: 0 ok, 1 witness replay found violations, 2 usage/IO
   errors. *)

open Repro_core
open Repro_check
module Hub = Repro_obs.Hub
module Probe = Repro_obs.Probe
module Trace = Repro_obs.Trace
module Metrics = Repro_obs.Metrics
module Sink = Repro_obs.Sink

let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "ahl_trace: %s\n" m; exit 2) fmt

let save_opt ~what path artifact =
  match path with
  | None -> ()
  | Some path -> (
      match Sink.save ~path artifact with
      | Ok () -> Printf.eprintf "ahl_trace: wrote %s to %s\n" what path
      | Error msg -> fail "cannot write %s: %s" path msg)

let () =
  let id = ref "" in
  let witness = ref "" in
  let quick = ref false in
  let jobs = ref 0 in
  let trace_path = ref "" in
  let jsonl_path = ref "" in
  let metrics_path = ref "" in
  let summary = ref false in
  let print_figure = ref false in
  let engine_seed = ref 21 in
  let mode = ref "ref" in
  let concurrency = ref "2pl" in
  let shards = ref 2 in
  let committee = ref 3 in
  let spec =
    [
      ("--witness", Arg.Set_string witness, "W replay an ahl_check cross-shard witness string");
      ("--quick", Arg.Set quick, " reduced sweeps and durations for the experiment");
      ("--jobs", Arg.Set_int jobs, "J worker domains (artifacts are identical for any J)");
      ("--trace", Arg.Set_string trace_path, "PATH write Chrome trace-event JSON here");
      ("--jsonl", Arg.Set_string jsonl_path, "PATH write one JSON event per line here");
      ("--metrics", Arg.Set_string metrics_path, "PATH write the metrics registries as JSON here");
      ("--summary", Arg.Set summary, " print a text summary of the recorded metrics");
      ("--print", Arg.Set print_figure, " also print the rendered figure (experiment runs)");
      ("--engine-seed", Arg.Set_int engine_seed, "S witness replay engine seed (default: 21)");
      ("--mode", Arg.Set_string mode, "M witness coordination mode: ref|client|flat (default: ref)");
      ( "--concurrency",
        Arg.Set_string concurrency,
        "C witness concurrency control: 2pl|waitdie (default: 2pl)" );
      ("--shards", Arg.Set_int shards, "K witness shard committees (default: 2)");
      ("--committee", Arg.Set_int committee, "N witness replicas per committee (default: 3)");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> if !id = "" then id := a else fail "unexpected argument %s" a)
    "ahl_trace ID | --witness W  (replay with tracing; see DESIGN.md)";
  let opt r = if !r = "" then None else Some !r in
  let trace_path = opt trace_path and jsonl_path = opt jsonl_path in
  let metrics_path = opt metrics_path in
  if (!id = "") = (!witness = "") then fail "pass exactly one of an experiment ID or --witness";
  if !witness <> "" then begin
    (* ---- witness replay: one system under test, one trace ---------- *)
    let sched =
      match Xschedule.of_string !witness with
      | s -> s
      | exception Witness.Invalid_witness w -> fail "malformed witness: %s" w
    in
    let mode =
      match Xexplore.mode_of_name !mode with
      | Some m -> m
      | None -> fail "unknown mode %s (want ref|client|flat)" !mode
    in
    let concurrency =
      match Xexplore.concurrency_of_name !concurrency with
      | Some c -> c
      | None -> fail "unknown concurrency %s (want 2pl|waitdie)" !concurrency
    in
    let trace = Trace.create () and metrics = Metrics.create () in
    let probe = Probe.make ~trace ~metrics in
    let outcome =
      Xtestbed.run ~probe ~engine_seed:(Int64.of_int !engine_seed) ~mode ~concurrency
        ~shards:!shards ~committee_size:!committee sched
    in
    let violations = Xoracle.check outcome in
    let named = [ ("witness", trace) ] in
    save_opt ~what:"trace" trace_path (Sink.chrome_json named);
    save_opt ~what:"jsonl" jsonl_path (Sink.jsonl named);
    save_opt ~what:"metrics" metrics_path (Sink.metrics_json [ ("witness", metrics) ]);
    if !summary then Sink.print_summary [ ("witness", metrics) ];
    List.iter (fun v -> print_endline (Xoracle.to_string v)) violations;
    Printf.printf "witness replay: %d event(s), %d violation(s)\n" (Trace.length trace)
      (List.length violations);
    exit (if violations = [] then 0 else 1)
  end
  else begin
    (* ---- experiment replay: one probe per datapoint via the hub ---- *)
    let f =
      match Experiment.by_id !id with
      | Some f -> f
      | None -> fail "unknown experiment id %s (try `ahl_cli experiment --list`)" !id
    in
    if !jobs > 0 then Experiment.set_jobs !jobs;
    let figure, hub = Experiment.record f ~quick:!quick in
    if !print_figure then Results.print figure;
    let traces = Hub.traces hub in
    let metrics = Hub.metrics hub in
    save_opt ~what:"trace" trace_path (Sink.chrome_json traces);
    save_opt ~what:"jsonl" jsonl_path (Sink.jsonl traces);
    save_opt ~what:"metrics" metrics_path (Sink.metrics_json metrics);
    if !summary then Sink.print_summary metrics;
    let events = List.fold_left (fun acc (_, t) -> acc + Trace.length t) 0 traces in
    Printf.printf "%s: %d probed run(s), %d event(s)\n" !id (List.length (Hub.names hub)) events;
    exit 0
  end

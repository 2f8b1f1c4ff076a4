(* Command-line driver for the AHL sharded-blockchain reproduction.

   Subcommands:
     experiment  — regenerate a paper table/figure by id (or list them);
                   with --out DIR, also record its BENCH/METRICS artifacts
     consensus   — run one PBFT-family committee and report measurements
     sizing      — committee-size calculator (Eq. 1/2)
     beacon      — run the distributed randomness beacon once
     shards      — run the full sharded system under a workload *)

open Cmdliner
open Repro_util
open Repro_consensus
open Repro_core

(* Range checks run before anything is simulated: the first failing [(ok, msg)]
   is a command-line error (exit 124), not an exception out of the simulator. *)
let checked ranges run =
  match List.find_opt (fun (ok, _) -> not ok) ranges with
  | Some (_, msg) -> `Error (false, msg)
  | None -> `Ok (run ())

let at_least name lo v = (v >= lo, Printf.sprintf "%s must be at least %d, got %d" name lo v)

let positive name v = (v > 0.0, Printf.sprintf "%s must be positive, got %g" name v)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

(* Wall time is read here, at the edge, for the BENCH_<id>.json metadata
   only; no simulated number depends on it. *)
let wall_clock () = Unix.gettimeofday () (* ahl_lint: allow R1 *)

let make_out_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then Ok ()
  else match Sys.mkdir dir 0o755 with () -> Ok () | exception Sys_error msg -> Error msg

(* [--out DIR]: record the figure (every datapoint recomputed into a fresh
   hub), print it as without [--out], and write BENCH_<id>.json and
   METRICS_<id>.json, both a function of the id alone. *)
let record_figure ~dir ~quick id f =
  let t0 = wall_clock () in
  let figure, hub = Experiment.record f ~quick in
  let wall_time_s = wall_clock () -. t0 in
  Results.print figure;
  let metrics_path = Filename.concat dir (Printf.sprintf "METRICS_%s.json" id) in
  match
    Result.bind
      (Results.save_json ~dir ~wall_time_s ~jobs:(Experiment.jobs_in_use ()) figure)
      (fun () ->
        Repro_obs.Sink.save ~path:metrics_path
          (Repro_obs.Sink.metrics_json (Repro_obs.Hub.metrics hub)))
  with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "ahl_cli: cannot write %s artifacts: %s\n" id msg;
      exit 2

let experiment_cmd =
  let run ids quick list_only jobs out =
    let jobs_ok = match jobs with Some j -> at_least "-j" 1 j | None -> (true, "") in
    checked [ jobs_ok ] @@ fun () ->
    if list_only then begin
      List.iter print_endline Experiment.all_ids;
      0
    end
    else begin
      let ids = if ids = [] then Experiment.all_ids else ids in
      (* Resolve every id and make the output directory before running
         anything, so a typo or a bad path fails fast. *)
      let figures = List.filter_map (fun id -> Option.map (fun f -> (id, f)) (Experiment.by_id id)) ids in
      match List.filter (fun id -> not (List.mem_assoc id figures)) ids with
      | _ :: _ as unknown ->
          List.iter (Printf.eprintf "unknown experiment id: %s (try --list)\n") unknown;
          2
      | [] -> (
          match Option.fold ~none:(Ok ()) ~some:make_out_dir out with
          | Error msg ->
              Printf.eprintf "ahl_cli: cannot create the --out directory: %s\n" msg;
              2
          | Ok () ->
              Option.iter Experiment.set_jobs jobs;
              List.iter
                (fun (id, f) ->
                  match out with
                  | None -> Results.print (f ~quick)
                  | Some dir -> record_figure ~dir ~quick id f)
                figures;
              0)
    end
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (fig8, table2, ...)") in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps and durations") in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit") in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the datapoints (default: the recommended domain count); \
             every output is identical for any $(docv)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Record each figure: recompute every datapoint and write BENCH_<id>.json \
             (panels, wall time, jobs) and METRICS_<id>.json (the runs' metrics registries) \
             under $(docv), created if missing")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(ret (const run $ ids $ quick $ list_only $ jobs $ out))

(* ------------------------------------------------------------------ *)
(* consensus                                                           *)
(* ------------------------------------------------------------------ *)

let variant_conv =
  let parse s =
    match
      List.find_opt (fun v -> String.lowercase_ascii v.Config.name = String.lowercase_ascii s)
        (Config.ahl_opt1 :: Config.all_variants)
    with
    | Some v -> Ok v
    | None -> Error (`Msg "expected one of: HL, AHL, AHL+, AHL+op1, AHLR")
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt v.Config.name)

let consensus_cmd =
  let run variant n rate duration gcp byzantine =
    checked
      [ at_least "-n" 1 n; positive "--rate" rate; positive "--duration" duration;
        ( byzantine >= 0 && byzantine <= n,
          Printf.sprintf "--byzantine must be between 0 and -n (%d), got %d" n byzantine ) ]
    @@ fun () ->
    let topology = if gcp then Repro_sim.Topology.gcp 8 else Repro_sim.Topology.lan () in
    let r =
      Harness.run ~duration ~warmup:(duration /. 5.0) ~byzantine ~variant ~n ~topology
        ~workload:(Harness.Open_loop { rate; clients = 10 })
        ()
    in
    Format.printf "%s n=%d %s: %a@." variant.Config.name n
      (if gcp then "gcp8" else "cluster")
      Harness.pp_result r;
    0
  in
  let variant =
    Arg.(value & opt variant_conv Config.ahl_plus & info [ "variant"; "v" ] ~doc:"HL, AHL, AHL+, AHLR")
  in
  let n = Arg.(value & opt int 19 & info [ "n" ] ~doc:"Committee size") in
  let rate = Arg.(value & opt float 2200.0 & info [ "rate" ] ~doc:"Offered load (req/s)") in
  let duration = Arg.(value & opt float 20.0 & info [ "duration" ] ~doc:"Virtual seconds") in
  let gcp = Arg.(value & flag & info [ "gcp" ] ~doc:"8-region GCP topology instead of the cluster") in
  let byz = Arg.(value & opt int 0 & info [ "byzantine" ] ~doc:"Byzantine replicas") in
  Cmd.v
    (Cmd.info "consensus" ~doc:"Run one consensus committee and report throughput")
    Term.(ret (const run $ variant $ n $ rate $ duration $ gcp $ byz))

(* ------------------------------------------------------------------ *)
(* sizing                                                              *)
(* ------------------------------------------------------------------ *)

let sizing_cmd =
  let run total fraction bits =
    let open Repro_shard in
    let report rule label =
      let n = Sizing.min_committee_size ~total ~fraction ~rule ~security_bits:bits in
      let k = max 1 (total / n) in
      Printf.printf "%-12s committee %4d  -> %3d shard(s) of %d nodes\n" label n k total
    in
    Printf.printf "N = %d, adversary = %.1f%%, target 2^-%d\n" total (100.0 *. fraction) bits;
    report Sizing.Pbft_third "PBFT";
    report Sizing.Ahl_half "AHL+";
    let n = Sizing.min_committee_size ~total ~fraction ~rule:Sizing.Ahl_half ~security_bits:bits in
    let b = Sizing.swap_batch_size ~n in
    Printf.printf "epoch transition with B = log n = %d: Pr(faulty) = %.2e\n" b
      (Sizing.pr_epoch_transition_faulty ~total
         ~byzantine:(int_of_float (fraction *. float_of_int total))
         ~n ~k:(max 1 (total / n)) ~batch:b Sizing.Ahl_half);
    0
  in
  let total = Arg.(value & opt int 2000 & info [ "total"; "N" ] ~doc:"Network size") in
  let fraction = Arg.(value & opt float 0.25 & info [ "adversary"; "s" ] ~doc:"Byzantine fraction") in
  let bits = Arg.(value & opt int 20 & info [ "bits" ] ~doc:"Security parameter (2^-bits)") in
  Cmd.v
    (Cmd.info "sizing" ~doc:"Committee-size security calculator (Equations 1 and 2)")
    Term.(const run $ total $ fraction $ bits)

(* ------------------------------------------------------------------ *)
(* beacon                                                              *)
(* ------------------------------------------------------------------ *)

let beacon_cmd =
  let run n gcp withhold =
    let open Repro_shard in
    let topology = if gcp then Repro_sim.Topology.gcp 8 else Repro_sim.Topology.lan () in
    let delta = Randomness.measured_delta ~topology ~n in
    let l_bits = Randomness.paper_l_bits ~n in
    let o = Randomness.run ~n ~topology ~delta ~l_bits ~byzantine_withhold:withhold () in
    Printf.printf
      "n=%d delta=%.1fs l=%d: rnd=%Lx agreed in %.1fs (%d round(s), %d certificates, %d msgs)\n" n
      delta l_bits o.Randomness.rnd o.Randomness.elapsed o.Randomness.rounds
      o.Randomness.certificates o.Randomness.messages;
    Printf.printf "RandHound at the same size: %.1fs\n"
      (Randomness.randhound_runtime ~n ~group:16 ~topology);
    0
  in
  let n = Arg.(value & opt int 128 & info [ "n" ] ~doc:"Network size") in
  let gcp = Arg.(value & flag & info [ "gcp" ] ~doc:"GCP topology") in
  let withhold = Arg.(value & opt int 0 & info [ "withhold" ] ~doc:"Byzantine certificate withholders") in
  Cmd.v
    (Cmd.info "beacon" ~doc:"Run the SGX randomness-beacon agreement once")
    Term.(const run $ n $ gcp $ withhold)

(* ------------------------------------------------------------------ *)
(* shards                                                              *)
(* ------------------------------------------------------------------ *)

let shards_cmd =
  let run shards committee duration mode fast_lane theta =
    checked
      [ at_least "--shards" 1 shards; at_least "--committee" 1 committee;
        positive "--duration" duration ]
    @@ fun () ->
    let mode_tag =
      match mode with
      | System.With_reference -> "with-reference"
      | System.Client_driven -> "client-driven"
      | System.Flattened -> "flattened"
    in
    let sys =
      System.create
        { (System.default_config ~shards ~committee_size:committee) with System.mode; fast_lane }
    in
    (* The fast lane needs commutative work to route: under --fast-lane the
       driver mixes credit-only hot-key increments (mergeable) with
       sendPayments (conditional debits, always locked). *)
    let kind =
      if fast_lane then Workload.Hot_increments { increment_fraction = 0.9 }
      else Workload.Smallbank
    in
    let wl = Workload.create kind ~keyspace:20_000 ~theta ~rng:(Rng.create 4L) in
    Workload.setup wl sys ~initial_balance:5000;
    Workload.start_closed_loop wl sys ~clients:(4 * shards) ~outstanding:32;
    System.run sys ~until:duration;
    Printf.printf
      "shards=%d n=%d %s: %.0f tx/s, %d committed, %.1f%% aborts, cross-shard %.0f%%, R busy %.0f%%\n"
      shards committee mode_tag
      (System.throughput sys ~warmup:(duration /. 5.0))
      (System.committed sys)
      (100.0 *. System.abort_rate sys)
      (100.0 *. Workload.cross_shard_fraction_seen wl)
      (100.0 *. System.reference_busy_fraction sys);
    if fast_lane then begin
      let deltas =
        List.init shards (fun s -> System.merge_lane_log sys ~shard:s)
        |> List.fold_left ( + ) 0
      in
      Printf.printf "fast lane: %d deltas appended, %d block-boundary folds\n" deltas
        (System.merge_folds sys);
      match System.merge_audit sys with
      | [] -> Printf.printf "merge audit: all lanes converged\n"
      | ms -> Printf.printf "merge audit: %d DIVERGENT keys\n" (List.length ms)
    end;
    0
  in
  let shards = Arg.(value & opt int 4 & info [ "shards"; "k" ] ~doc:"Number of shards") in
  let committee = Arg.(value & opt int 3 & info [ "committee" ] ~doc:"Committee size") in
  let duration = Arg.(value & opt float 30.0 & info [ "duration" ] ~doc:"Virtual seconds") in
  let coordination =
    let mode_conv =
      Arg.enum
        [
          ("ref", System.With_reference);
          ("client", System.Client_driven);
          ("flattened", System.Flattened);
        ]
    in
    Arg.(
      value
      & opt mode_conv System.With_reference
      & info [ "coordination" ]
          ~doc:
            "Cross-shard coordination: $(b,ref) (dedicated reference committee), $(b,client) \
             (client-driven, no fallback), or $(b,flattened) (SharPer-style, the 2PC state \
             machine rides the coordinator shard's own committee)")
  in
  let fast_lane =
    Arg.(
      value & flag
      & info [ "fast-lane" ]
          ~doc:
            "Commutative fast lane (DESIGN §18): all-mergeable transactions skip 2PC and its \
             locks, appending deltas that fold deterministically at block boundaries; the \
             workload becomes a 90/10 hot-key increment / sendPayment mix so both paths run")
  in
  let theta = Arg.(value & opt float 0.2 & info [ "zipf" ] ~doc:"Zipf skew of the workload") in
  Cmd.v
    (Cmd.info "shards" ~doc:"Run the full sharded blockchain under SmallBank")
    Term.(
      ret (const run $ shards $ committee $ duration $ coordination $ fast_lane $ theta))

(* ------------------------------------------------------------------ *)
(* contract                                                            *)
(* ------------------------------------------------------------------ *)

let contract_cmd =
  let run from_ to_ amount shards =
    let open Repro_ledger in
    let send_payment =
      Contract.define ~name:"sendPayment" ~arity:3
        [
          Contract.Transfer
            { from_ = Contract.Param 0; to_ = Contract.Param 1; amount = Contract.Amount_param 2 };
        ]
    in
    let args = [ from_; to_; string_of_int amount ] in
    (match Contract.compile send_payment ~args with
    | Error e ->
        Printf.printf "compile error: %s\n" e
    | Ok ops ->
        Printf.printf "compiled operations:\n";
        List.iter (fun op -> Format.printf "  %a@." Tx.pp_op op) ops;
        (match Contract.analyze send_payment ~shards ~args with
        | `Single s -> Printf.printf "single-shard transaction (shard %d)\n" s
        | `Cross l ->
            Printf.printf "distributed transaction across shards [%s] -> 2PC via R\n"
              (String.concat "; " (List.map string_of_int l))));
    0
  in
  let from_ = Arg.(value & opt string "alice" & info [ "from" ] ~doc:"Source account") in
  let to_ = Arg.(value & opt string "bob" & info [ "to" ] ~doc:"Destination account") in
  let amount = Arg.(value & opt int 10 & info [ "amount" ] ~doc:"Amount") in
  let shards = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Shard count for the analysis") in
  Cmd.v
    (Cmd.info "contract" ~doc:"Compile and analyze a contract invocation (the §6.4 transformer)")
    Term.(const run $ from_ $ to_ $ amount $ shards)

let () =
  let doc = "Sharded-blockchain (AHL) reproduction toolkit" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ahl_cli" ~doc)
          [ experiment_cmd; consensus_cmd; sizing_cmd; beacon_cmd; shards_cmd; contract_cmd ]))

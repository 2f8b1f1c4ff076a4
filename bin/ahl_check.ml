(* ahl_check: deterministic adversarial schedule explorer for the AHL
   reproduction.

   Usage: ahl_check [--variant NAME] [--n N] [--f F] [--trials T]
                    [--seed S] [--budget B] [--json]
          ahl_check --cross-shard [--mode diff|ref|client|flat]
                    [--concurrency 2pl|waitdie] [--fast-lane]
                    [--shards K] [--committee N] [--trials T] [--seed S]
                    [--budget B] [--json]

   Single-committee variants: hl2f1 hl ahl ahl+ ahlr, or `diff` (the
   default) for the headline differential — HL's unattested quorums at
   N=2f+1 must yield a safety violation within the trial budget while
   AHL/AHL+/AHLR stay safe under identical schedules.  `leader-stall`
   runs the byzantine-leader differential instead: under scripted
   stall / selective-serving leader schedules the unattested small-quorum
   committee must storm with view changes on every trial while the
   attested variants keep committing with zero violations.

   --cross-shard switches to whole-system exploration: seeded 2PC
   coordinator-fault schedules over shard committees plus R, with
   atomicity / durable-decision / conservation / stuck-lock / liveness
   oracles.  --mode diff runs the silent-client differential
   (With_reference survives, Client_driven leaves locks stuck); --mode
   ref, client, or flat explores that coordination mode.  The system
   under test always runs the batched + pipelined commit path the figures
   run (DESIGN §15), so a witness replays on the protocol it was found on.
   --fast-lane turns the commutative fast lane on: honest transfers
   become mergeable delta pairs, schedules also fault the delta legs, and
   the merge-convergence oracle is armed (a run parameter: the witness
   line is unchanged).

   Exit codes: 0 property holds / no violation, 1 otherwise, 2 usage
   errors.  Every reported witness is replayable from
   (engine_seed, schedule) alone. *)

open Repro_check
open Repro_consensus

let () =
  let variant = ref "diff" in
  let n = ref 0 in
  let f = ref 1 in
  let trials = ref 5 in
  let seed = ref 11 in
  let budget = ref 32 in
  let json = ref false in
  let cross = ref false in
  let lane = ref false in
  let mode = ref "diff" in
  let concurrency = ref "2pl" in
  let shards = ref 3 in
  let committee = ref 4 in
  let spec =
    [
      ( "--variant",
        Arg.Set_string variant,
        "NAME hl2f1|hl|ahl|ahl+|ahlr, diff for the differential (default), or leader-stall \
         for the byzantine-leader differential" );
      ("--n", Arg.Set_int n, "N committee size (default: derived from the variant and F)");
      ("--f", Arg.Set_int f, "F byzantine replicas (default: 1)");
      ("--trials", Arg.Set_int trials, "T seeded schedules to explore (default: 5)");
      ("--seed", Arg.Set_int seed, "S base seed; trial i uses engine seed S+i (default: 11)");
      ("--budget", Arg.Set_int budget, "B max shrink replays per violation (default: 32)");
      ("--json", Arg.Set json, " emit a machine-readable summary on stdout");
      ("--cross-shard", Arg.Set cross, " explore whole-system cross-shard schedules");
      ( "--fast-lane",
        Arg.Set lane,
        " run the cross-shard system with the commutative fast lane on (delta-leg faults + \
         merge-convergence oracle)" );
      ( "--mode",
        Arg.Set_string mode,
        "M cross-shard mode: diff|ref|client|flat (default: diff, the silent-client \
         differential)" );
      ( "--concurrency",
        Arg.Set_string concurrency,
        "C cross-shard concurrency control: 2pl|waitdie (default: 2pl)" );
      ("--shards", Arg.Set_int shards, "K shard committees for --cross-shard (default: 3)");
      ( "--committee",
        Arg.Set_int committee,
        "N replicas per committee for --cross-shard (default: 4)" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a ->
      Printf.eprintf "ahl_check: unexpected argument %s\n" a;
      exit 2)
    "ahl_check [options]  (adversarial schedule explorer; see DESIGN.md)";
  if !f < 1 then begin
    Printf.eprintf "ahl_check: --f must be >= 1\n";
    exit 2
  end;
  if !trials < 1 || !budget < 0 then begin
    Printf.eprintf "ahl_check: --trials must be >= 1 and --budget >= 0\n";
    exit 2
  end;
  let seed = Int64.of_int !seed in
  (* The explorer itself is clock-free; wall time is measured here, at the
     edge, for the JSON summary only.  ahl_lint: allow R1 *)
  let started = Unix.gettimeofday () in
  let finish reports ok =
    if !json then begin
      let wall_time = Unix.gettimeofday () -. started in (* ahl_lint: allow R1 *)
      print_endline (Explore.json_summary ~wall_time reports)
    end;
    exit (if ok then 0 else 1)
  in
  if !cross then begin
    if !shards < 2 || !committee < 3 then begin
      Printf.eprintf "ahl_check: --cross-shard needs --shards >= 2 and --committee >= 3\n";
      exit 2
    end;
    let concurrency =
      match Xexplore.concurrency_of_name !concurrency with
      | Some c -> c
      | None ->
          Printf.eprintf "ahl_check: unknown concurrency %s\n" !concurrency;
          exit 2
    in
    match !mode with
    | "diff" | "differential" ->
        if !lane then begin
          Printf.eprintf
            "ahl_check: --fast-lane does not apply to the silent-client differential\n";
          exit 2
        end;
        let d = Xexplore.differential ~shards:!shards ~committee_size:!committee ~seed () in
        if !json then print_endline (Xexplore.json_of_differential d)
        else Format.printf "%a" Xexplore.pp_differential d;
        exit (if d.Xexplore.holds then 0 else 1)
    | name -> (
        match Xexplore.mode_of_name name with
        | None ->
            Printf.eprintf "ahl_check: unknown cross-shard mode %s\n" name;
            exit 2
        | Some mode ->
            let r =
              Xexplore.run ~lane:!lane ~mode ~concurrency ~shards:!shards
                ~committee_size:!committee ~trials:!trials ~seed ~budget:!budget ()
            in
            if !json then print_endline (Xexplore.json_of_report r)
            else Format.printf "%a" Xexplore.pp_report r;
            exit
              (if r.Xexplore.safety_violations = 0 && r.Xexplore.liveness_violations = 0 then 0
               else 1))
  end;
  match !variant with
  | "diff" | "differential" ->
      let d = Explore.differential ~f:!f ~trials:!trials ~seed ~budget:!budget in
      if not !json then Format.printf "%a" Explore.pp_differential d;
      finish (d.Explore.broken :: d.Explore.safe) d.Explore.holds
  | "leader-stall" | "leader_stall" ->
      let d = Explore.leader_stall_differential ~f:!f ~trials:!trials ~seed ~budget:!budget in
      if not !json then Format.printf "%a" Explore.pp_leader_differential d;
      finish (d.Explore.broken :: d.Explore.safe) d.Explore.holds
  | name -> (
      match Explore.variant_of_name name with
      | None ->
          Printf.eprintf "ahl_check: unknown variant %s\n" name;
          exit 2
      | Some variant ->
          let n = if !n > 0 then !n else Config.n_for_f variant ~f:!f in
          let r = Explore.run ~variant ~n ~f:!f ~trials:!trials ~seed ~budget:!budget in
          if not !json then Format.printf "%a" Explore.pp_report r;
          finish [ r ] (r.Explore.safety_violations = 0))

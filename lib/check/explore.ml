open Repro_util
open Repro_consensus

(* HL's quorum rule applied at AHL's committee size: 2f+1 replicas with
   f+1 quorums but no attested logs.  This is the configuration the paper
   argues is unsound — the differential target. *)
let hl_small = { Config.hl with Config.name = "HL@2f+1"; Config.quorum_rule = `Half }

let variant_of_name = function
  | "hl2f1" | "hl@2f+1" -> Some hl_small
  | "hl" -> Some Config.hl
  | "ahl" -> Some Config.ahl
  | "ahl+" | "ahlplus" -> Some Config.ahl_plus
  | "ahlr" -> Some Config.ahlr
  | _ -> None

type trial = {
  index : int;
  engine_seed : int64;
  schedule : Schedule.t;
  violations : Oracle.violation list;
  view_changes : int;
  shrunk : Schedule.t option;
  shrink_reruns : int;
}

type report = {
  variant_name : string;
  n : int;
  f : int;
  trials : trial list;
  safety_violations : int;  (** trials with at least one safety violation *)
  liveness_violations : int;
}

let replay ~variant ~n ~engine_seed schedule =
  Oracle.check (Testbed.run ~engine_seed ~variant ~n schedule)

let schedule_for ~seed ~n ~f index =
  Schedule.generate (Rng.split_named (Rng.create seed) (string_of_int index)) ~n ~f

let engine_seed_for ~seed index = Int64.add seed (Int64.of_int index)

let run_scripted ~variant ~n ~f ~trials ~seed ~budget ~schedule_of =
  let run_trial index =
    let schedule = schedule_of index in
    let engine_seed = engine_seed_for ~seed index in
    let outcome = Testbed.run ~engine_seed ~variant ~n schedule in
    let violations = Oracle.check outcome in
    let shrunk, shrink_reruns =
      match List.filter Oracle.is_safety violations with
      | [] -> (None, 0)
      | first :: _ ->
          let replay_one s =
            match List.filter Oracle.is_safety (replay ~variant ~n ~engine_seed s) with
            | [] -> None
            | v :: _ -> Some v
          in
          let s, reruns = Shrink.minimize ~replay:replay_one ~budget schedule first in
          (Some s, reruns)
    in
    {
      index;
      engine_seed;
      schedule;
      violations;
      view_changes = outcome.Testbed.view_changes;
      shrunk;
      shrink_reruns;
    }
  in
  let all = List.init trials run_trial in
  let count p = List.length (List.filter p all) in
  {
    variant_name = variant.Config.name;
    n;
    f;
    trials = all;
    safety_violations = count (fun t -> List.exists Oracle.is_safety t.violations);
    liveness_violations =
      count (fun t -> List.exists (fun v -> not (Oracle.is_safety v)) t.violations);
  }

let run ~variant ~n ~f ~trials ~seed ~budget =
  run_scripted ~variant ~n ~f ~trials ~seed ~budget ~schedule_of:(fun index ->
      schedule_for ~seed ~n ~f index)

type differential = {
  broken : report;
  safe : report list;
  holds : bool;
      (** the paper's claim as a property: the unattested small-quorum
          configuration yields a safety violation within the budget, and
          none of the attested variants does on the identical schedules *)
}

let differential ~f ~trials ~seed ~budget =
  let n = Config.n_for_f Config.ahl ~f in
  let broken = run ~variant:hl_small ~n ~f ~trials ~seed ~budget in
  let safe =
    List.map
      (fun variant -> run ~variant ~n ~f ~trials ~seed ~budget)
      [ Config.ahl; Config.ahl_plus; Config.ahlr ]
  in
  let holds =
    broken.safety_violations > 0 && List.for_all (fun r -> r.safety_violations = 0) safe
  in
  { broken; safe; holds }

(* Leader-attack schedules are scripted, not drawn: the byzantine clique
   sits on ids [0..f-1] so it owns the early leader slots, there are no
   network perturbations (the leader IS the fault), and trials alternate
   between the stall and the selective-serving strategy (the drip is
   stealthy by design — it never trips the watchdog, so it has no place
   in a view-change differential).  The starved peer under selective
   serving is the highest id: never the observer, so bounded liveness
   stays a fair demand. *)
let leader_schedule ~n ~f index =
  let served = List.filter (fun i -> i <> n - 1) (List.init n (fun i -> i)) in
  {
    Schedule.byz = List.init f (fun i -> i);
    split_brain = false;
    stale_replay = false;
    silent_toward = [];
    leader =
      Some (if index mod 2 = 0 then Schedule.Stall else Schedule.Serve_only served);
    requests = 6 + (2 * index);
    events = [];
  }

let leader_stall_differential ~f ~trials ~seed ~budget =
  let n = Config.n_for_f Config.ahl ~f in
  let schedule_of index = leader_schedule ~n ~f index in
  let broken = run_scripted ~variant:hl_small ~n ~f ~trials ~seed ~budget ~schedule_of in
  let safe =
    List.map
      (fun variant -> run_scripted ~variant ~n ~f ~trials ~seed ~budget ~schedule_of)
      [ Config.ahl; Config.ahl_plus; Config.ahlr ]
  in
  (* A byzantine leader cannot be told apart from a slow one, so stalls
     are timeout-detected in every variant; the property is therefore a
     storm-shape one.  Broken side: the unattested small-quorum committee
     must storm with view changes on every stall trial (the byzantine
     clique really wins and loses the slot) without ever breaking safety.
     Selective serving is stealthier — the starved minority alone can
     never reach the f+1 join threshold, so only AHLR's relay watchdog
     catches it: the relay variant must storm on EVERY trial, serve
     included.  Safe side: the attested variants ride out the identical
     schedules with no violation of any kind — they keep committing. *)
  let stall_trial t =
    match t.schedule.Schedule.leader with Some Schedule.Stall -> true | _ -> false
  in
  let storms_on_stalls r =
    List.for_all (fun t -> (not (stall_trial t)) || t.view_changes >= 1) r.trials
  in
  let storms_always r = List.for_all (fun t -> t.view_changes >= 1) r.trials in
  let clean r = r.safety_violations = 0 && r.liveness_violations = 0 in
  let relay_detects =
    List.for_all
      (fun r -> r.variant_name <> Config.ahlr.Config.name || storms_always r)
      safe
  in
  let holds =
    broken.safety_violations = 0 && storms_on_stalls broken
    && List.for_all clean safe && relay_detects
  in
  { broken; safe; holds }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_trial fmt t =
  match t.violations with
  | [] -> Format.fprintf fmt "trial %d: ok@." t.index
  | vs ->
      Format.fprintf fmt "trial %d: %d violation(s)@." t.index (List.length vs);
      List.iter (fun v -> Format.fprintf fmt "  %s@." (Oracle.to_string v)) vs;
      (match t.shrunk with
      | None -> ()
      | Some s ->
          Format.fprintf fmt "  witness (engine_seed=%Ld, %d replays):@.    %s@." t.engine_seed
            t.shrink_reruns (Schedule.to_string s))

let pp_report fmt r =
  Format.fprintf fmt "%s n=%d f=%d: %d/%d trials with safety violations, %d liveness@."
    r.variant_name r.n r.f r.safety_violations (List.length r.trials) r.liveness_violations;
  List.iter (pp_trial fmt) r.trials

let pp_leader_report ~expect_storm fmt r =
  Format.fprintf fmt "%s n=%d f=%d: %d/%d trials with safety violations, %d liveness@."
    r.variant_name r.n r.f r.safety_violations (List.length r.trials) r.liveness_violations;
  List.iter
    (fun t ->
      Format.fprintf fmt "trial %d: view_changes=%d, %d violation(s)@." t.index t.view_changes
        (List.length t.violations);
      List.iter (fun v -> Format.fprintf fmt "  %s@." (Oracle.to_string v)) t.violations;
      (* Any trial off its expected shape carries its own one-line
         replayable witness: the scripted schedule plus the engine seed. *)
      if t.violations <> [] || (expect_storm t && t.view_changes = 0) then
        Format.fprintf fmt "  witness (engine_seed=%Ld):@.    %s@." t.engine_seed
          (Schedule.to_string t.schedule))
    r.trials

let pp_leader_differential fmt (d : differential) =
  let stall_only t =
    match t.schedule.Schedule.leader with Some Schedule.Stall -> true | _ -> false
  in
  Format.fprintf fmt "broken:@.%a@." (pp_leader_report ~expect_storm:stall_only) d.broken;
  List.iter
    (fun r ->
      (* Only the relay variant is expected to detect selective serving. *)
      let expect_storm =
        if r.variant_name = Config.ahlr.Config.name then fun _ -> true else stall_only
      in
      Format.fprintf fmt "safe:@.%a@." (pp_leader_report ~expect_storm) r)
    d.safe;
  Format.fprintf fmt "leader-stall differential %s@."
    (if d.holds then "holds" else "DOES NOT HOLD")

(* Machine-readable summary; [wall_time] is measured by the caller so this
   module stays free of wall-clock reads. *)
let json_escape = Repro_obs.Sink.json_escape

let json_of_report r =
  let trial_json t =
    let witness =
      match t.shrunk with
      | None -> "null"
      | Some s -> Printf.sprintf "\"%s\"" (json_escape (Schedule.to_string s))
    in
    Printf.sprintf
      "{\"trial\":%d,\"engine_seed\":%Ld,\"view_changes\":%d,\"violations\":[%s],\"shrunk_witness\":%s,\"shrunk_size\":%s,\"shrink_reruns\":%d}"
      t.index t.engine_seed t.view_changes
      (String.concat ","
         (List.map (fun v -> Printf.sprintf "\"%s\"" (json_escape (Oracle.to_string v))) t.violations))
      witness
      (match t.shrunk with None -> "null" | Some s -> string_of_int (Schedule.size s))
      t.shrink_reruns
  in
  Printf.sprintf
    "{\"variant\":\"%s\",\"n\":%d,\"f\":%d,\"trials\":%d,\"safety_violations\":%d,\"liveness_violations\":%d,\"results\":[%s]}"
    (json_escape r.variant_name) r.n r.f (List.length r.trials) r.safety_violations
    r.liveness_violations
    (String.concat "," (List.map trial_json r.trials))

let json_summary ~wall_time reports =
  Printf.sprintf "{\"wall_time_s\":%.3f,\"reports\":[%s]}" wall_time
    (String.concat "," (List.map json_of_report reports))

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

type params = { variant : Config.variant; n : int; f : int }
type stats = { view_changes : int }

let replay ~variant ~n ~engine_seed schedule =
  Oracle.check (Testbed.run ~engine_seed ~variant ~n schedule)

include Explorer.Make (struct
  type schedule = Schedule.t

  let size = Schedule.size
  let candidates = Schedule.candidates
  let schedule_to_string = Schedule.to_string

  type violation = Oracle.violation

  let is_safety = Oracle.is_safety
  let same_kind = Oracle.same_kind
  let violation_to_string = Oracle.to_string

  (* Section 3's claim is about safety, so only safety violations are
     shrunk to a witness. *)
  let earns_witness = Oracle.is_safety

  type nonrec params = params

  let label p = Printf.sprintf "%s n=%d f=%d" p.variant.Config.name p.n p.f

  let params_json p =
    Printf.sprintf "\"variant\":\"%s\",\"n\":%d,\"f\":%d"
      (Repro_obs.Sink.json_escape p.variant.Config.name) p.n p.f

  type nonrec stats = stats

  let stats_json s = [ ("view_changes", s.view_changes) ]

  let replay p ~engine_seed schedule =
    let outcome = Testbed.run ~engine_seed ~variant:p.variant ~n:p.n schedule in
    (Oracle.check outcome, { view_changes = outcome.Testbed.view_changes })
end)

let schedule_for ~seed ~n ~f index = Schedule.generate (schedule_rng ~seed index) ~n ~f

let run ~variant ~n ~f ~trials ~seed ~budget =
  explore { variant; n; f } ~schedule_of:(schedule_for ~seed ~n ~f) ~trials ~seed ~budget

type differential = {
  broken : report;
  safe : report list;
  holds : bool;
      (** the paper's claim as a property: the unattested small-quorum
          configuration yields a safety violation within the budget, and
          none of the attested variants does on the identical schedules *)
}

(* The unattested small-quorum committee, then AHL/AHL+/AHLR, each on the
   identical trial schedules. *)
let across_variants ~f ~trials ~seed ~budget schedule_of =
  let n = Config.n_for_f Config.ahl ~f in
  let run variant = explore { variant; n; f } ~schedule_of:(schedule_of ~n) ~trials ~seed ~budget in
  (run hl_small, List.map run [ Config.ahl; Config.ahl_plus; Config.ahlr ])

let differential ~f ~trials ~seed ~budget =
  let broken, safe =
    across_variants ~f ~trials ~seed ~budget (fun ~n -> schedule_for ~seed ~n ~f)
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
    Schedule.adversary =
      {
        Pbft.honest with
        Pbft.byzantine = List.init f (fun i -> i);
        leader_attack =
          Some (if index mod 2 = 0 then Pbft.Leader_stall else Pbft.Leader_serve_only served);
      };
    (* Testbed never advances the stable checkpoint, so a trial orders at
       most [Config.watermark_window] slots: the count cycles below it
       (6..124 requests). *)
    requests = 6 + (2 * (index mod ((Config.watermark_window - 8) / 2)));
    events = [];
  }

let stall_trial t =
  match t.schedule.Schedule.adversary.Pbft.leader_attack with
  | Some Pbft.Leader_stall -> true
  | _ -> false

let is_relay r = String.equal r.params.variant.Config.name Config.ahlr.Config.name

let leader_stall_differential ~f ~trials ~seed ~budget =
  let broken, safe = across_variants ~f ~trials ~seed ~budget (leader_schedule ~f) in
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
  let storms_on_stalls r =
    List.for_all (fun t -> (not (stall_trial t)) || t.stats.view_changes >= 1) r.trials
  in
  let storms_always r = List.for_all (fun t -> t.stats.view_changes >= 1) r.trials in
  let clean r = r.safety_violations = 0 && r.liveness_violations = 0 in
  let relay_detects = List.for_all (fun r -> (not (is_relay r)) || storms_always r) safe in
  let holds =
    broken.safety_violations = 0 && storms_on_stalls broken
    && List.for_all clean safe && relay_detects
  in
  { broken; safe; holds }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_differential fmt d =
  Format.fprintf fmt "broken:@.%a@." pp_report d.broken;
  List.iter (fun r -> Format.fprintf fmt "safe:@.%a@." pp_report r) d.safe;
  Format.fprintf fmt "differential %s@." (if d.holds then "holds" else "DOES NOT HOLD")

let pp_leader_report ~expect_storm fmt r =
  pp_summary fmt r;
  List.iter
    (fun t ->
      Format.fprintf fmt "trial %d: view_changes=%d, %d violation(s)@." t.index t.stats.view_changes
        (List.length t.violations);
      List.iter (fun v -> Format.fprintf fmt "  %s@." (Oracle.to_string v)) t.violations;
      (* Any trial off its expected shape carries its own one-line
         replayable witness: the scripted schedule plus the engine seed. *)
      if t.violations <> [] || (expect_storm t && t.stats.view_changes = 0) then
        Format.fprintf fmt "  witness (engine_seed=%Ld):@.    %s@." t.engine_seed
          (Schedule.to_string t.schedule))
    r.trials

let pp_leader_differential fmt d =
  Format.fprintf fmt "broken:@.%a@." (pp_leader_report ~expect_storm:stall_trial) d.broken;
  List.iter
    (fun r ->
      (* Only the relay variant is expected to detect selective serving. *)
      let expect_storm = if is_relay r then fun _ -> true else stall_trial in
      Format.fprintf fmt "safe:@.%a@." (pp_leader_report ~expect_storm) r)
    d.safe;
  Format.fprintf fmt "leader-stall differential %s@."
    (if d.holds then "holds" else "DOES NOT HOLD")

(* [wall_time] is measured by the caller so this module stays free of
   wall-clock reads. *)
let json_summary ~wall_time reports =
  Printf.sprintf "{\"wall_time_s\":%.3f,\"reports\":[%s]}" wall_time
    (String.concat "," (List.map json_of_report reports))

open Repro_util

module Make (M : Explorer_intf.MODEL) = struct
  type trial = {
    index : int;
    engine_seed : int64;
    schedule : M.schedule;
    violations : M.violation list;
    stats : M.stats;
    shrunk : M.schedule option;
    shrink_reruns : int;
  }

  type report = {
    params : M.params;
    trials : trial list;
    safety_violations : int;
    liveness_violations : int;
  }

  let engine_seed_for ~seed index = Int64.add seed (Int64.of_int index)

  let schedule_rng ~seed index = Rng.split_named (Rng.create seed) (string_of_int index)

  (* Every candidate is re-checked by a fully deterministic replay, so the
     result plus the engine seed is a minimal replayable witness. *)
  let shrink ~replay ~budget schedule violation =
    let reruns = ref 0 in
    let reproduces s =
      incr reruns;
      match replay s with Some v -> M.same_kind v violation | None -> false
    in
    let rec fixpoint s =
      if !reruns >= budget then s
      else
        let rec try_candidates = function
          | [] -> s
          | cand :: rest ->
              if !reruns >= budget then s
              else if reproduces cand then fixpoint cand
              else try_candidates rest
        in
        try_candidates (M.candidates s)
    in
    let shrunk = fixpoint schedule in
    (shrunk, !reruns)

  let explore params ~schedule_of ~trials ~seed ~budget =
    let run_trial index =
      let schedule = schedule_of index in
      let engine_seed = engine_seed_for ~seed index in
      let violations, stats = M.replay params ~engine_seed schedule in
      let shrunk, shrink_reruns =
        match List.find_opt M.earns_witness violations with
        | None -> (None, 0)
        | Some first ->
            let replay s = List.find_opt M.earns_witness (fst (M.replay params ~engine_seed s)) in
            let s, reruns = shrink ~replay ~budget schedule first in
            (Some s, reruns)
      in
      { index; engine_seed; schedule; violations; stats; shrunk; shrink_reruns }
    in
    let trials = List.init trials run_trial in
    let count p = List.length (List.filter (fun t -> List.exists p t.violations) trials) in
    {
      params;
      trials;
      safety_violations = count M.is_safety;
      liveness_violations = count (fun v -> not (M.is_safety v));
    }

  (* ---------------------------------------------------------------- *)
  (* Reporting                                                         *)
  (* ---------------------------------------------------------------- *)

  let pp_trial fmt t =
    match t.violations with
    | [] -> Format.fprintf fmt "trial %d: ok@." t.index
    | vs ->
        Format.fprintf fmt "trial %d: %d violation(s)@." t.index (List.length vs);
        List.iter (fun v -> Format.fprintf fmt "  %s@." (M.violation_to_string v)) vs;
        Option.iter
          (fun s ->
            Format.fprintf fmt "  witness (engine_seed=%Ld, %d replays):@.    %s@." t.engine_seed
              t.shrink_reruns (M.schedule_to_string s))
          t.shrunk

  let pp_summary fmt r =
    Format.fprintf fmt "%s: %d/%d trials with safety violations, %d liveness@." (M.label r.params)
      r.safety_violations (List.length r.trials) r.liveness_violations

  let pp_report fmt r =
    pp_summary fmt r;
    List.iter (pp_trial fmt) r.trials

  let json_string s = Printf.sprintf "\"%s\"" (Repro_obs.Sink.json_escape s)

  let json_of_trial t =
    let stats =
      String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d," k v) (M.stats_json t.stats))
    in
    let witness, size =
      match t.shrunk with
      | None -> ("null", "null")
      | Some s -> (json_string (M.schedule_to_string s), string_of_int (M.size s))
    in
    Printf.sprintf
      "{\"trial\":%d,\"engine_seed\":%Ld,%s\"violations\":[%s],\"shrunk_witness\":%s,\"shrunk_size\":%s,\"shrink_reruns\":%d}"
      t.index t.engine_seed stats
      (String.concat "," (List.map (fun v -> json_string (M.violation_to_string v)) t.violations))
      witness size t.shrink_reruns

  let json_of_report r =
    Printf.sprintf
      "{%s,\"trials\":%d,\"safety_violations\":%d,\"liveness_violations\":%d,\"results\":[%s]}"
      (M.params_json r.params) (List.length r.trials) r.safety_violations r.liveness_violations
      (String.concat "," (List.map json_of_trial r.trials))
end

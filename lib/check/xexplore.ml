open Repro_util
open Repro_core

let mode_of_name = function
  | "ref" | "with-reference" -> Some System.With_reference
  | "client" | "client-driven" -> Some System.Client_driven
  | "flat" | "flattened" -> Some System.Flattened
  | _ -> None

let mode_name = function
  | System.With_reference -> "with-reference"
  | System.Client_driven -> "client-driven"
  | System.Flattened -> "flattened"

let concurrency_of_name = function
  | "2pl" -> Some System.Two_phase_locking
  | "waitdie" | "wait-die" -> Some System.Wait_die
  | _ -> None

type trial = {
  index : int;
  engine_seed : int64;
  schedule : Xschedule.t;
  violations : Xoracle.violation list;
  shrunk : Xschedule.t option;
  shrink_reruns : int;
}

type report = {
  mode : System.coordination_mode;
  lane : bool;
  shards : int;
  committee_size : int;
  trials : trial list;
  safety_violations : int;
  liveness_violations : int;
}

let replay ?(lane = false) ~mode ~concurrency ~shards ~committee_size ~engine_seed schedule =
  Xoracle.check
    (Xtestbed.run ~lane ~engine_seed ~mode ~concurrency ~shards ~committee_size schedule)

let schedule_for ?(lane = false) ~seed ~shards ~committee_size index =
  let rng = Rng.split_named (Rng.create seed) (string_of_int index) in
  if lane then Xschedule.generate_lane rng ~shards ~committee_size
  else Xschedule.generate rng ~shards ~committee_size

let engine_seed_for ~seed index = Int64.add seed (Int64.of_int index)

let run ?(lane = false) ~mode ~concurrency ~shards ~committee_size ~trials ~seed ~budget
    () =
  let run_trial index =
    let schedule = schedule_for ~lane ~seed ~shards ~committee_size index in
    let engine_seed = engine_seed_for ~seed index in
    let violations =
      replay ~lane ~mode ~concurrency ~shards ~committee_size ~engine_seed schedule
    in
    (* Unlike the single-committee explorer, liveness-class findings
       (stuck locks) are first-class bugs here, so any violation is worth
       a minimal witness. *)
    let shrunk, shrink_reruns =
      match violations with
      | [] -> (None, 0)
      | first :: _ ->
          let replay_one s =
            match replay ~lane ~mode ~concurrency ~shards ~committee_size ~engine_seed s with
            | [] -> None
            | v :: _ -> Some v
          in
          let s, reruns = Xshrink.minimize ~replay:replay_one ~budget schedule first in
          (Some s, reruns)
    in
    { index; engine_seed; schedule; violations; shrunk; shrink_reruns }
  in
  let all = List.init trials run_trial in
  let count p = List.length (List.filter p all) in
  {
    mode;
    lane;
    shards;
    committee_size;
    trials = all;
    safety_violations = count (fun t -> List.exists Xoracle.is_safety t.violations);
    liveness_violations =
      count (fun t -> List.exists (fun v -> not (Xoracle.is_safety v)) t.violations);
  }

(* ------------------------------------------------------------------ *)
(* The silent-client differential (the Figure-14 argument)             *)
(* ------------------------------------------------------------------ *)

(* Two cross-shard transfers, the first from a client that goes silent
   after BeginTx; no network faults at all.  R's fallback must finish both
   transactions cleanly, while client-driven coordination leaves the
   silent client's locks stuck forever. *)
let silent_client_schedule =
  {
    Xschedule.txs = 2;
    malicious = [ 0 ];
    overdraft = [];
    contended = false;
    faults = [];
  }

type differential = {
  with_ref : Xoracle.violation list;
  client_driven : Xoracle.violation list;
  holds : bool;
}

let differential ~shards ~committee_size ~seed () =
  let go mode =
    replay ~mode ~concurrency:System.Two_phase_locking ~shards ~committee_size
      ~engine_seed:seed silent_client_schedule
  in
  let with_ref = go System.With_reference in
  let client_driven = go System.Client_driven in
  let holds =
    with_ref = []
    && List.exists (function Xoracle.Stuck_locks _ -> true | _ -> false) client_driven
  in
  { with_ref; client_driven; holds }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_trial fmt t =
  match t.violations with
  | [] -> Format.fprintf fmt "trial %d: ok@." t.index
  | vs ->
      Format.fprintf fmt "trial %d: %d violation(s)@." t.index (List.length vs);
      List.iter (fun v -> Format.fprintf fmt "  %s@." (Xoracle.to_string v)) vs;
      (match t.shrunk with
      | None -> ()
      | Some s ->
          Format.fprintf fmt "  witness (engine_seed=%Ld, %d replays):@.    %s@." t.engine_seed
            t.shrink_reruns (Xschedule.to_string s))

let pp_report fmt r =
  Format.fprintf fmt
    "cross-shard %s%s shards=%d committee=%d: %d/%d trials with safety violations, %d \
     liveness@."
    (mode_name r.mode)
    (if r.lane then " (fast-lane)" else "")
    r.shards r.committee_size r.safety_violations (List.length r.trials) r.liveness_violations;
  List.iter (pp_trial fmt) r.trials

let pp_differential fmt d =
  let side name = function
    | [] -> Format.fprintf fmt "%s: ok@." name
    | vs ->
        Format.fprintf fmt "%s:@." name;
        List.iter (fun v -> Format.fprintf fmt "  %s@." (Xoracle.to_string v)) vs
  in
  side "with-reference" d.with_ref;
  side "client-driven" d.client_driven;
  Format.fprintf fmt "silent-client differential %s@."
    (if d.holds then "holds" else "DOES NOT HOLD")

let json_escape = Repro_obs.Sink.json_escape

let json_violations vs =
  String.concat ","
    (List.map (fun v -> Printf.sprintf "\"%s\"" (json_escape (Xoracle.to_string v))) vs)

let json_of_report r =
  let trial_json t =
    let witness =
      match t.shrunk with
      | None -> "null"
      | Some s -> Printf.sprintf "\"%s\"" (json_escape (Xschedule.to_string s))
    in
    Printf.sprintf
      "{\"trial\":%d,\"engine_seed\":%Ld,\"violations\":[%s],\"shrunk_witness\":%s,\"shrunk_size\":%s,\"shrink_reruns\":%d}"
      t.index t.engine_seed (json_violations t.violations) witness
      (match t.shrunk with None -> "null" | Some s -> string_of_int (Xschedule.size s))
      t.shrink_reruns
  in
  Printf.sprintf
    "{\"mode\":\"%s\",\"fast_lane\":%b,\"shards\":%d,\"committee_size\":%d,\"trials\":%d,\"safety_violations\":%d,\"liveness_violations\":%d,\"results\":[%s]}"
    (mode_name r.mode) r.lane r.shards r.committee_size (List.length r.trials)
    r.safety_violations r.liveness_violations
    (String.concat "," (List.map trial_json r.trials))

let json_of_differential d =
  Printf.sprintf
    "{\"differential\":\"silent-client\",\"with_ref\":[%s],\"client_driven\":[%s],\"holds\":%b}"
    (json_violations d.with_ref) (json_violations d.client_driven) d.holds

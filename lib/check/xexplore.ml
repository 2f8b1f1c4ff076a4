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

type params = {
  mode : System.coordination_mode;
  concurrency : System.concurrency_control;
  lane : bool;
  shards : int;
  committee_size : int;
}

let replay ?(lane = false) ~mode ~concurrency ~shards ~committee_size ~engine_seed schedule =
  Xoracle.check
    (Xtestbed.run ~lane ~engine_seed ~mode ~concurrency ~shards ~committee_size schedule)

include Explorer.Make (struct
  type schedule = Xschedule.t

  let size = Xschedule.size
  let candidates = Xschedule.candidates
  let schedule_to_string = Xschedule.to_string

  type violation = Xoracle.violation

  let is_safety = Xoracle.is_safety
  let same_kind = Xoracle.same_kind
  let violation_to_string = Xoracle.to_string

  (* Unlike the single-committee checker, liveness-class findings (stuck
     locks) are first-class bugs here, so any violation earns a witness. *)
  let earns_witness _ = true

  type nonrec params = params

  let label p =
    Printf.sprintf "cross-shard %s%s shards=%d committee=%d" (mode_name p.mode)
      (if p.lane then " (fast-lane)" else "")
      p.shards p.committee_size

  let params_json p =
    Printf.sprintf "\"mode\":\"%s\",\"fast_lane\":%b,\"shards\":%d,\"committee_size\":%d"
      (mode_name p.mode) p.lane p.shards p.committee_size

  type stats = unit

  let stats_json () = []

  let replay p ~engine_seed schedule =
    ( replay ~lane:p.lane ~mode:p.mode ~concurrency:p.concurrency ~shards:p.shards
        ~committee_size:p.committee_size ~engine_seed schedule,
      () )
end)

let schedule_for ?(lane = false) ~seed ~shards ~committee_size index =
  let rng = schedule_rng ~seed index in
  if lane then Xschedule.generate_lane rng ~shards ~committee_size
  else Xschedule.generate rng ~shards ~committee_size

let run ?(lane = false) ~mode ~concurrency ~shards ~committee_size ~trials ~seed ~budget
    () =
  explore
    { mode; concurrency; lane; shards; committee_size }
    ~schedule_of:(schedule_for ~lane ~seed ~shards ~committee_size)
    ~trials ~seed ~budget

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

let json_of_differential d =
  Printf.sprintf
    "{\"differential\":\"silent-client\",\"with_ref\":[%s],\"client_driven\":[%s],\"holds\":%b}"
    (json_violations d.with_ref) (json_violations d.client_driven) d.holds

type variant = {
  name : string;
  quorum_rule : [ `Third | `Half ];
  attested : bool;
  split_queues : bool;
  forward_requests : bool;
  relay : bool;
}

let hl =
  {
    name = "HL";
    quorum_rule = `Third;
    attested = false;
    split_queues = false;
    forward_requests = false;
    relay = false;
  }

let ahl = { hl with name = "AHL"; quorum_rule = `Half; attested = true }

let ahl_opt1 = { ahl with name = "AHL+op1"; split_queues = true }

let ahl_plus = { ahl_opt1 with name = "AHL+"; forward_requests = true }

let ahlr = { ahl_plus with name = "AHLR"; relay = true }

let all_variants = [ hl; ahl; ahl_plus; ahlr ]

type t = {
  variant : variant;
  n : int;
  checkpoint_interval : int;
  progress_timeout : float;
  vc_backoff_cap : int;
  relay_timeout : float;
  relay_tail_prob : float;
}

let batch_max = 200

let batch_delay = 0.05

let pipeline_window = 8

let watermark_window = 128

let relay_tail_factor = 35.0

let shared_queue_capacity = 5000

let request_queue_capacity = 4096

let consensus_queue_capacity = 8192

let consensus_msg_bytes = 160

let request_parse_cost = 15e-6

let client_sig_verify = 500e-6

let msg_parse_cost = 10e-6

let f_of t =
  match t.variant.quorum_rule with `Third -> (t.n - 1) / 3 | `Half -> (t.n - 1) / 2

let quorum_size t =
  match t.variant.quorum_rule with `Third -> (2 * f_of t) + 1 | `Half -> f_of t + 1

let n_for_f variant ~f =
  match variant.quorum_rule with `Third -> (3 * f) + 1 | `Half -> (2 * f) + 1

let default variant ~n ~topology =
  if n < 1 then Repro_util.Invariant.fail "Config.default: n must be positive";
  (* Across regions the relay deadline must absorb round-trip jitter. *)
  let wan = Repro_sim.Topology.regions topology > 1 in
  {
    variant;
    n;
    checkpoint_interval = 16;
    progress_timeout = 2.0;
    vc_backoff_cap = 3;
    relay_timeout = (if wan then 2.5 else 1.0);
    relay_tail_prob = (if wan then 0.005 else 0.01);
  }

let inbox_mode t =
  if t.variant.split_queues then
    Repro_sim.Inbox.Split
      { request_cap = request_queue_capacity; consensus_cap = consensus_queue_capacity }
  else Repro_sim.Inbox.Shared shared_queue_capacity

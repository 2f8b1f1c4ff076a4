open Repro_util

type t = {
  nregions : int;
  latency_s : float array array; (* mean one-way latency between regions *)
  bandwidth_bps : float;
  cpu_scale : float; (* CPU-charge multiplier of the testbed's machines *)
}

let gcp_region_names =
  [|
    "us-west1-b"; "us-west2-a"; "us-east1-b"; "us-east4-b";
    "asia-east1-b"; "asia-southeast1-b"; "europe-west1-b"; "europe-west2-a";
  |]

(* Table 3 of the paper, in milliseconds. *)
let gcp_latency_matrix_ms =
  [|
    [| 0.0; 24.7; 66.7; 59.0; 120.2; 150.8; 138.9; 132.7 |];
    [| 24.7; 0.0; 62.9; 60.5; 129.5; 160.5; 140.4; 136.1 |];
    [| 66.7; 62.9; 0.0; 12.7; 183.8; 216.6; 93.1; 88.2 |];
    [| 59.1; 60.4; 12.7; 0.0; 176.6; 208.4; 81.9; 75.6 |];
    [| 118.7; 129.5; 184.9; 176.6; 0.0; 50.5; 255.5; 252.5 |];
    [| 150.8; 160.5; 216.7; 208.3; 50.6; 0.0; 288.8; 283.8 |];
    [| 138.9; 140.5; 93.2; 81.8; 255.7; 288.7; 0.0; 7.1 |];
    [| 132.1; 134.9; 88.1; 76.6; 252.1; 283.9; 7.1; 0.0 |];
  |]

(* Relative spread of every link's delay. *)
let jitter = 0.1

(* Delay within one region / between colocated instances. *)
let intra_region_s = 0.4e-3

let constrained_lan ~latency_ms ~bandwidth_mbps =
  {
    nregions = 1;
    latency_s = [| [| latency_ms *. 1e-3 |] |];
    bandwidth_bps = bandwidth_mbps *. 1e6;
    cpu_scale = 1.0;
  }

let lan () = constrained_lan ~latency_ms:0.3 ~bandwidth_mbps:1000.0

let gcp n =
  if n < 1 || n > 8 then Invariant.fail "Topology.gcp: regions must be in 1..8";
  let latency_s =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then intra_region_s else gcp_latency_matrix_ms.(i).(j) *. 1e-3))
  in
  {
    nregions = n;
    latency_s;
    bandwidth_bps = 100.0 *. 1e6;
    cpu_scale = 3.5;
  }

let regions t = t.nregions

let cpu_scale t = t.cpu_scale

let region_of_node t node = node mod t.nregions

let latency t rng ~src_region ~dst_region =
  if src_region < 0 || src_region >= t.nregions || dst_region < 0 || dst_region >= t.nregions
  then Invariant.fail "Topology.latency: region out of range";
  let base = t.latency_s.(src_region).(dst_region) in
  let base = Float.max base intra_region_s in
  (* Symmetric relative jitter, truncated at zero. *)
  let j = 1.0 +. ((Rng.float rng 2.0 -. 1.0) *. jitter) in
  Float.max 0.0 (base *. j)

let transfer_time t ~bytes = float_of_int (8 * bytes) /. t.bandwidth_bps

type request = {
  req_id : int;
  client : int;
  submitted : float;
  op_tag : int;
}

let request_payload_bytes = 200

let request_overhead_bytes = 40

let request_bytes = request_overhead_bytes + request_payload_bytes

let request ~req_id ~client ~submitted ?(op_tag = 0) () = { req_id; client; submitted; op_tag }

type phase = Prepare_phase | Commit_phase

let phase_log = function Prepare_phase -> 1 | Commit_phase -> 2

let digest_of_batch batch = Repro_util.Det.stable_hash_ints ~prefix:"batch:" (fun r -> r.req_id) batch

let batch_bytes batch = request_payload_bytes * List.length batch

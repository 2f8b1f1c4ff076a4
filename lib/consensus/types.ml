type request = {
  req_id : int;
  client : int;
  submitted : float;
  size : int;
  op_tag : int;
}

let request ~req_id ~client ~submitted ?(size = 200) ?(op_tag = 0) () =
  { req_id; client; submitted; size; op_tag }

type phase = Prepare_phase | Commit_phase

let phase_log = function Prepare_phase -> 1 | Commit_phase -> 2

let digest_of_batch batch = Repro_util.Det.stable_hash_ints ~prefix:"batch:" (fun r -> r.req_id) batch

let batch_bytes batch = List.fold_left (fun acc r -> acc + r.size) 0 batch

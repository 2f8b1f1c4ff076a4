open Repro_util

type rule = Pbft_third | Ahl_half

let tolerance rule ~n =
  match rule with Pbft_third -> (n - 1) / 3 | Ahl_half -> (n - 1) / 2

let log_pr_faulty ~total ~byzantine ~n rule =
  let f = tolerance rule ~n in
  Logspace.hypergeom_log_tail ~total ~bad:byzantine ~draws:n ~at_least:(f + 1)

let pr_faulty_committee ~total ~byzantine ~n rule = exp (log_pr_faulty ~total ~byzantine ~n rule)

let log2_pr_faulty ~total ~byzantine ~n rule = log_pr_faulty ~total ~byzantine ~n rule /. log 2.0

let min_committee_size ~total ~fraction ~rule ~security_bits =
  if fraction < 0.0 || fraction >= 1.0 then
    Invariant.fail "Sizing.min_committee_size: fraction %g outside [0, 1)" fraction;
  let byzantine = int_of_float (Float.round (fraction *. float_of_int total)) in
  let target = -.float_of_int security_bits in
  let rec search n =
    if n > total then total
    else if log2_pr_faulty ~total ~byzantine ~n rule <= target then n
    else search (n + 1)
  in
  search 1

let max_shards ~total ~fraction ~rule ~security_bits =
  let n = min_committee_size ~total ~fraction ~rule ~security_bits in
  (Int.max 1 (total / n), n)

let swap_batch_size ~n =
  Int.max 1 (int_of_float (Float.round (log (float_of_int (Int.max 2 n)) /. log 2.0)))

let pr_epoch_transition_faulty ~total ~byzantine ~n ~k ~batch rule =
  (* Expected number of intermediate committees during one transition. *)
  let intermediates =
    float_of_int n *. float_of_int (k - 1) /. float_of_int k /. float_of_int (Int.max 1 batch)
  in
  let per = pr_faulty_committee ~total ~byzantine ~n rule in
  Float.min 1.0 (intermediates *. per)

(* Stirling numbers of the second kind, S(d, x), by the standard DP. *)
let stirling2 d =
  let table = Array.make_matrix (d + 1) (d + 1) 0.0 in
  table.(0).(0) <- 1.0;
  for i = 1 to d do
    for j = 1 to i do
      table.(i).(j) <- (float_of_int j *. table.(i - 1).(j)) +. table.(i - 1).(j - 1)
    done
  done;
  table.(d)

let cross_shard_probability ~shards ~args ~touches =
  if touches < 1 || touches > Int.min args shards then 0.0
  else begin
    let s = stirling2 args in
    (* P(X = x) = C(k, x) · x! · S(d, x) / k^d *)
    let log_p =
      Logspace.log_choose shards touches
      +. Logspace.log_gamma (float_of_int (touches + 1))
      +. log s.(touches)
      -. (float_of_int args *. log (float_of_int shards))
    in
    exp log_p
  end

let expected_cross_shard_fraction ~shards ~args =
  if shards <= 1 || args <= 1 then if shards <= 1 then 0.0 else 0.0
  else 1.0 -. cross_shard_probability ~shards ~args ~touches:1

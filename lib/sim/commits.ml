open Repro_util

type t = {
  engine : Engine.t;
  mutable committed : int;
  mutable aborted : int;
  mutable committed_after : (float * int) list; (* (time, count), newest first *)
  latencies : Stats.t;
  series : Stats.Series.s;
}

let create engine =
  {
    engine;
    committed = 0;
    aborted = 0;
    committed_after = [];
    latencies = Stats.create ();
    series =
      (match Stats.Series.create ~bin:1.0 with
      | Ok s -> s
      | Error msg -> Invariant.fail "Commits.create: %s" msg);
  }

let commit t ~count =
  t.committed <- t.committed + count;
  let now = Engine.now t.engine in
  t.committed_after <- (now, count) :: t.committed_after;
  Stats.Series.record t.series now (float_of_int count)

let commit_latency t ~submitted = Stats.add t.latencies (Engine.now t.engine -. submitted)

let abort t ~count = t.aborted <- t.aborted + count

let committed t = t.committed

let aborted t = t.aborted

let abort_rate t =
  let finished = t.committed + t.aborted in
  if finished = 0 then 0.0 else float_of_int t.aborted /. float_of_int finished

let throughput t ~warmup =
  let now = Engine.now t.engine in
  if now <= warmup then 0.0
  else begin
    let in_window =
      List.fold_left
        (fun acc (time, count) -> if time >= warmup then acc + count else acc)
        0 t.committed_after
    in
    float_of_int in_window /. (now -. warmup)
  end

let latency_stats t = t.latencies

let throughput_series t = Stats.Series.rate_bins t.series

open Repro_util

type t = {
  clock : float ref;
      (* A [float ref] holds a boxed float ([ref] is polymorphic, so it is
         not a flat float record).  Advancing the clock stores the box
         [Heap.min_key] returned, one store per event, and [now] hands
         that box out without allocating.  A flat clock would box on
         every [now] read from another module instead, several per
         event. *)
  queue : (unit -> unit) Heap.t;
  root_rng : Rng.t;
  mutable processed : int;
}

let create ~seed =
  { clock = ref 0.0; queue = Heap.create (); root_rng = Rng.create seed; processed = 0 }

let now t = !(t.clock)

let rng t = t.root_rng

let schedule_at t ~time f =
  let time = Float.max time !(t.clock) in
  Heap.push t.queue time f

let schedule t ~delay f =
  if delay < 0.0 then Invariant.fail "Engine.schedule: negative delay";
  schedule_at t ~time:(!(t.clock) +. delay) f

(* Fire the minimum event, whose key the caller has read as [time]. *)
let fire t time =
  t.clock := time;
  let f = Heap.take_min t.queue in
  t.processed <- t.processed + 1;
  f ()

let step t =
  if Heap.is_empty t.queue then false
  else begin
    fire t (Heap.min_key t.queue);
    true
  end

let run t ~until =
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.queue then continue := false
    else begin
      let time = Heap.min_key t.queue in
      if time <= until then fire t time else continue := false
    end
  done;
  t.clock := Float.max !(t.clock) until

let run_until_idle ?(max_events = max_int) t =
  let n = ref 0 in
  while !n < max_events && step t do
    incr n
  done

let events_processed t = t.processed

let pending t = Heap.size t.queue

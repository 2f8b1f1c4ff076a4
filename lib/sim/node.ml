(* The CPU's clocks.  An all-float record is stored flat, so updating a
   field writes the float in place: no box, no write barrier. *)
type clocks = {
  mutable busy_until : float;
  mutable busy_accum : float;
  mutable epoch_started : float;
}

type 'msg t = {
  engine : Engine.t;
  node_id : int;
  inbox : 'msg Inbox.t;
  handler : 'msg t -> 'msg -> unit;
  cpu : clocks;
  mutable pump_scheduled : bool;
  mutable crashed : bool;
  wake : unit -> unit; (* [pump] of this node, built once *)
}

let id t = t.node_id


let charge t cost =
  if cost < 0.0 then Repro_util.Invariant.fail "Node.charge: negative cost";
  let cpu = t.cpu in
  let start = Float.max (Engine.now t.engine) cpu.busy_until in
  cpu.busy_until <- start +. cost;
  cpu.busy_accum <- cpu.busy_accum +. cost

let charged t = Float.max 0.0 (t.cpu.busy_until -. Engine.now t.engine)

(* Serial-CPU drain loop: handle the next message once the CPU frees up.
   At most one wake-up event is outstanding at any time. *)
let rec pump t =
  t.pump_scheduled <- false;
  if not t.crashed then begin
    let now = Engine.now t.engine in
    if now < t.cpu.busy_until then schedule_pump t (t.cpu.busy_until -. now)
    else if Inbox.length t.inbox > 0 then begin
      t.handler t (Inbox.take t.inbox);
      pump t
    end
  end

and schedule_pump t delay =
  if not t.pump_scheduled then begin
    t.pump_scheduled <- true;
    Engine.schedule t.engine ~delay t.wake
  end

let create engine ~id ~inbox_mode ~handler =
  let now = Engine.now engine in
  let inbox = Inbox.create inbox_mode in
  let cpu = { busy_until = now; busy_accum = 0.0; epoch_started = now } in
  let rec t =
    {
      engine;
      node_id = id;
      inbox;
      handler;
      cpu;
      pump_scheduled = false;
      crashed = false;
      wake = (fun () -> pump t);
    }
  in
  t

let deliver t channel msg =
  if t.crashed then false
  else begin
    let accepted = Inbox.push t.inbox channel msg in
    if accepted then begin
      let now = Engine.now t.engine in
      if now >= t.cpu.busy_until then pump t else schedule_pump t (t.cpu.busy_until -. now)
    end;
    accepted
  end

let inbox_dropped t channel = Inbox.dropped t.inbox channel

let inbox_length t = Inbox.length t.inbox

let crash t =
  t.crashed <- true;
  Inbox.clear t.inbox

let recover t =
  if t.crashed then begin
    t.crashed <- false;
    t.cpu.epoch_started <- Engine.now t.engine;
    t.cpu.busy_until <- Engine.now t.engine;
    t.cpu.busy_accum <- 0.0;
    pump t
  end

let is_crashed t = t.crashed

let busy_fraction t =
  let elapsed = Engine.now t.engine -. t.cpu.epoch_started in
  if elapsed <= 0.0 then 0.0 else Float.min 1.0 (t.cpu.busy_accum /. elapsed)

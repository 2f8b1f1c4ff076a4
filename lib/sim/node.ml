type 'msg t = {
  engine : Engine.t;
  node_id : int;
  inbox : 'msg Inbox.t;
  handler : 'msg t -> 'msg -> unit;
  mutable busy_until : float;
  mutable pump_scheduled : bool;
  mutable crashed : bool;
  mutable busy_accum : float;
  mutable epoch_started : float;
}

let create engine ~id ~inbox_mode ~handler =
  {
    engine;
    node_id = id;
    inbox = Inbox.create inbox_mode;
    handler;
    busy_until = Engine.now engine;
    pump_scheduled = false;
    crashed = false;
    busy_accum = 0.0;
    epoch_started = Engine.now engine;
  }

let id t = t.node_id


let charge t cost =
  if cost < 0.0 then Sim_error.invalid "Node.charge: negative cost";
  let start = Float.max (Engine.now t.engine) t.busy_until in
  t.busy_until <- start +. cost;
  t.busy_accum <- t.busy_accum +. cost

let charged t = Float.max 0.0 (t.busy_until -. Engine.now t.engine)

(* Serial-CPU drain loop: handle the next message once the CPU frees up.
   At most one wake-up event is outstanding at any time. *)
let rec pump t =
  t.pump_scheduled <- false;
  if not t.crashed then begin
    let now = Engine.now t.engine in
    if now < t.busy_until then schedule_pump t (t.busy_until -. now)
    else
      match Inbox.pop t.inbox with
      | None -> ()
      | Some (_, msg) ->
          t.handler t msg;
          pump t
  end

and schedule_pump t delay =
  if not t.pump_scheduled then begin
    t.pump_scheduled <- true;
    Engine.schedule t.engine ~delay (fun () -> pump t)
  end

let deliver t channel msg =
  if t.crashed then false
  else begin
    let accepted = Inbox.push t.inbox channel msg in
    if accepted then begin
      let now = Engine.now t.engine in
      if now >= t.busy_until then pump t else schedule_pump t (t.busy_until -. now)
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
    t.epoch_started <- Engine.now t.engine;
    t.busy_until <- Engine.now t.engine;
    pump t
  end

let is_crashed t = t.crashed

let busy_fraction t =
  let elapsed = Engine.now t.engine -. t.epoch_started in
  if elapsed <= 0.0 then 0.0 else Float.min 1.0 (t.busy_accum /. elapsed)

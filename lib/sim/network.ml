open Repro_util

type verdict =
  | Deliver
  | Drop
  | Delay of float
  | Duplicate of { copies : int; spacing : float }

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  mutable nodes : ('msg Node.t * int) option array; (* id -> node, region *)
  rng : Rng.t;
  mutable filter : (src:int -> dst:int -> 'msg -> verdict) option;
  mutable sent : int;
  mutable delivered : int;
  mutable net_dropped : int;
  mutable probe : Repro_obs.Probe.t;
}

let create engine ~topology =
  {
    engine;
    topology;
    nodes = Array.make 64 None;
    rng = Rng.split_named (Engine.rng engine) "network";
    filter = None;
    sent = 0;
    delivered = 0;
    net_dropped = 0;
    probe = Repro_obs.Probe.none;
  }

let engine t = t.engine

(* Ids are dense ([Network.spawn] hands out [base .. base+n-1]), so the
   node table is an array indexed by id; an id outside it reads as absent. *)
let find t id = if id >= 0 && id < Array.length t.nodes then Array.unsafe_get t.nodes id else None

let register_in_region t node ~region =
  let id = Node.id node in
  if id < 0 then Invariant.fail "Network.register: negative node id";
  if Option.is_some (find t id) then Invariant.fail "Network.register: duplicate node id";
  if region < 0 || region >= Topology.regions t.topology then
    Invariant.fail "Network.register: region out of range";
  let len = Array.length t.nodes in
  if id >= len then begin
    let nodes = Array.make (Int.max (2 * len) (id + 1)) None in
    Array.blit t.nodes 0 nodes 0 len;
    t.nodes <- nodes
  end;
  t.nodes.(id) <- Some (node, region)

let register t node =
  register_in_region t node ~region:(Topology.region_of_node t.topology (Node.id node))


let transmit t ~src_id ~src_region ~departure ~dst ~channel ~bytes msg =
  t.sent <- t.sent + 1;
  match find t dst with
  | None -> ()
  | Some (dst_node, dst_region) -> (
      let decide () =
        match t.filter with
        | None -> Deliver
        | Some f -> f ~src:src_id ~dst msg
      in
      match decide () with
      | Drop ->
          t.net_dropped <- t.net_dropped + 1;
          Repro_obs.Probe.incr t.probe "net.dropped.filter"
      | (Deliver | Delay _ | Duplicate _) as v ->
          let extra, copies, spacing =
            match v with
            | Delay d -> (d, 1, 0.0)
            | Duplicate { copies; spacing } -> (0.0, Int.max 1 copies, Float.max 0.0 spacing)
            | Deliver | Drop -> (0.0, 1, 0.0)
          in
          let propagation = Topology.latency t.topology t.rng ~src_region ~dst_region in
          let serialization = Topology.transfer_time t.topology ~bytes in
          let arrival = departure +. serialization +. propagation +. extra in
          for i = 0 to copies - 1 do
            Engine.schedule_at t.engine
              ~time:(arrival +. (spacing *. float_of_int i))
              (fun () ->
                if Node.deliver dst_node channel msg then begin
                  t.delivered <- t.delivered + 1;
                  Repro_obs.Probe.observe t.probe "net.delivery_s"
                    (Engine.now t.engine -. departure)
                end
                else Repro_obs.Probe.incr t.probe "net.dropped.inbox")
          done)

let send t ~src ~dst ~channel ~bytes msg =
  let src_id = Node.id src in
  let src_region =
    match find t src_id with
    | Some (_, r) -> r
    | None -> Invariant.fail "Network.send: source not registered"
  in
  let departure = Engine.now t.engine +. Node.charged src in
  transmit t ~src_id ~src_region ~departure ~dst ~channel ~bytes msg

let send_external t ~src_region ~dst ~channel ~bytes msg =
  transmit t ~src_id:(-1) ~src_region ~departure:(Engine.now t.engine) ~dst ~channel ~bytes msg

let broadcast t ~src ~dsts ~channel ~bytes msg =
  List.iter (fun dst -> if dst <> Node.id src then send t ~src ~dst ~channel ~bytes msg) dsts

let spawn t ?(base = 0) ~n ~inbox_mode ~handle make =
  (* Handlers fire only on delivery, after [make] has returned. *)
  let committee = ref None in
  let nodes =
    Array.init n (fun member ->
        Node.create t.engine ~id:(base + member) ~inbox_mode ~handler:(fun _ msg ->
            match !committee with Some c -> handle c ~member msg | None -> ()))
  in
  Array.iter (register t) nodes;
  let send ~src ~dst ~channel ~bytes msg =
    send t ~src:nodes.(src) ~dst:(base + dst) ~channel ~bytes msg
  in
  let cpu_scale = Topology.cpu_scale t.topology in
  let charge ~member cost = Node.charge nodes.(member) (cost *. cpu_scale) in
  let c = make ~send ~charge in
  committee := Some c;
  (c, nodes)

let set_probe t p = t.probe <- p

let set_filter t f = t.filter <- Some f

let clear_filter t = t.filter <- None

let sent_count t = t.sent

let delivered_count t = t.delivered

let dropped_in_network t = t.net_dropped


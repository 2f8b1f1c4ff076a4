open Repro_util
open Repro_crypto
open Repro_sim
open Repro_consensus

let grace = 30.0

type outcome = {
  commits : Trace.commit list;  (** chronological across all replicas *)
  submitted : int list;
  honest : int list;
  observer : int;
  heal_time : float;
  horizon : float;
  view_changes : int;
}

let cuts kind ~src ~dst =
  match kind with
  | Schedule.Partition group ->
      let inside id = List.exists (Int.equal id) group in
      inside src <> inside dst
  | Schedule.Silence { from_; toward } -> src = from_ && dst = toward
  | Schedule.Drop _ | Schedule.Jitter _ | Schedule.Duplicate _ -> false

let run ~engine_seed ~variant ~n (sched : Schedule.t) =
  let engine = Engine.create ~seed:engine_seed in
  let topology = Topology.lan () in
  let cfg =
    (* Strictly sequential execution: with checkpoints out of the way a
       replica can never jump its ledger forward via state transfer, so
       the total-order-prefix oracle sees every block.  The stable
       checkpoint therefore never moves, so a run orders at most
       [Config.watermark_window] slots: schedules keep their request
       count below it. *)
    { (Config.default variant ~n ~topology) with Config.checkpoint_interval = 1_000_000 }
  in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let adversary = sched.Schedule.adversary in
  let network : Pbft.msg Network.t = Network.create engine ~topology in
  let c, _ =
    Pbft.spawn network ~keystore ~costs:Cost_model.default ~config:cfg ~adversary
      ~execute:(fun ~member:_ ~seq:_ _ -> ())
  in
  let commits = ref [] in
  Pbft.set_commit_hook c (fun ~member ~view ~seq ~digest ~batch ->
      commits :=
        Trace.commit_of_batch ~member ~view ~seq ~digest ~at:(Engine.now engine) batch
        :: !commits);
  (* The schedule adversary sits between the transport and the inboxes.
     Client submissions (src < 0) are the workload, not the adversary's to
     touch — otherwise a dropped submission reads as a liveness bug. *)
  let adv_rng = Rng.split_named (Engine.rng engine) "adversary" in
  Network.set_filter network (fun ~src ~dst _ ->
      if src < 0 then Network.Deliver
      else begin
        let at = Engine.now engine in
        let live = List.filter (fun ev -> Schedule.active ev ~at) sched.Schedule.events in
        if List.exists (fun ev -> cuts ev.Schedule.kind ~src ~dst) live then Network.Drop
        else begin
          (* Draw in event order so the consumed randomness is a pure
             function of (schedule, delivery order). *)
          let dropped = ref false in
          let jitter = ref 0.0 in
          let duplicated = ref false in
          List.iter
            (fun ev ->
              match ev.Schedule.kind with
              | Schedule.Drop p -> if Rng.float adv_rng 1.0 < p then dropped := true
              | Schedule.Jitter d -> jitter := !jitter +. Rng.float adv_rng d
              | Schedule.Duplicate p -> if Rng.float adv_rng 1.0 < p then duplicated := true
              | Schedule.Partition _ | Schedule.Silence _ -> ())
            live;
          if !dropped then Network.Drop
          else if !jitter > 0.0 then Network.Delay !jitter
          else if !duplicated then Network.Duplicate { copies = 2; spacing = 1e-3 }
          else Network.Deliver
        end
      end);
  Pbft.start c;
  (* Submissions go to honest intake replicas only: every request is known
     to at least one correct member, so the liveness oracle's demand that
     all of them eventually execute is fair. *)
  let honest =
    List.filter
      (fun id -> not (List.exists (Int.equal id) adversary.Pbft.byzantine))
      (List.init n (fun i -> i))
  in
  let intake = Array.of_list honest in
  let submitted = List.init sched.Schedule.requests (fun k -> k) in
  List.iter
    (fun k ->
      Engine.schedule engine
        ~delay:(0.05 *. float_of_int k)
        (fun () ->
          let req = Types.request ~req_id:k ~client:k ~submitted:(Engine.now engine) () in
          let m = Pbft.request req in
          let target = intake.(k mod Array.length intake) in
          Network.send_external network ~src_region:0 ~dst:target ~channel:Pbft.request_channel
            ~bytes:(Pbft.bytes_of_msg m) m))
    submitted;
  let heal_time = Schedule.heal_time sched in
  let horizon = heal_time +. grace in
  Engine.run engine ~until:horizon;
  {
    commits = List.rev !commits;
    submitted;
    honest;
    observer = Pbft.observer c;
    heal_time;
    horizon;
    view_changes = (Pbft.tally c).Pbft.view_changes;
  }

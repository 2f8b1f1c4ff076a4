open Repro_util
open Repro_crypto
open Repro_sim
module Poet_enclave = Repro_sgx.Poet_enclave
module Enclave = Repro_sgx.Enclave

type result = {
  produced : int;
  adopted : int;
  stale_rate : float;
  throughput : float;
  mean_interval : float;
}

type block = { height : int; producer : int; born : float }

type node_state = {
  id : int;
  enclave : Poet_enclave.t;
  mutable height : int; (* height this node is competing for *)
  mutable attempt : int; (* redraw counter within the height *)
  mutable gen : int; (* invalidates stale scheduled certificate events *)
}

let plus_l_bits ~n =
  let l = int_of_float (Float.round (log (float_of_int n) /. log 2.0 /. 2.0)) in
  Int.max 1 l

(* Enclave wait-slots are (height, attempt) pairs so an unlucky node can
   re-enter the race without being able to redraw a prior slot. *)
let slot ~height ~attempt = (height * 64) + Int.min 63 attempt

let block_time = 18.0 (* target mean interval between valid certificates *)

let tx_bytes = 500

let run ?(seed = 7L) ?(duration = 600.0) ~n ~topology ~block_mb ~l_bits () =
  let engine = Engine.create ~seed in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let costs = Cost_model.default in
  let block_bytes = int_of_float (block_mb *. 1024.0 *. 1024.0) in
  let txs_per_block = Int.max 1 (block_bytes / tx_bytes) in
  (* Sawtooth v0.8's difficulty lags the true population (its z-test
     population estimate under-adjusts at scale): the per-node wait mean
     scales as (effective population)^alpha with alpha < 1, so achieved
     block intervals shrink as deployments grow, and with them the margin
     over propagation delay.  PoET+'s q-filter shrinks the effective
     population to n·2^-l, keeping intervals long and collisions rare. *)
  let alpha = 0.9 in
  let n_eff = float_of_int n *. Float.pow 2.0 (float_of_int (-l_bits)) in
  (* Per-node mean such that the network-wide valid-certificate interval is
     block_time / n_eff^(1-alpha): a correctly-sized deployment of n_eff
     nodes would hold the target interval, an under-estimated one drifts
     shorter. *)
  let per_node_mean = block_time *. Float.pow (Float.max 1.0 n_eff) alpha in
  let produced = ref 0 in
  let adopted = ref 0 in
  let adoption_times = ref [] in
  let canonical : (int, block) Hashtbl.t = Hashtbl.create 256 in
  let rng = Rng.split_named (Engine.rng engine) "poet-net" in
  let states =
    Array.init n (fun id ->
        let enclave =
          Enclave.create ~keystore ~id ~measurement:"poet" ~rng:(Engine.rng engine) ~costs
            ~charge:(fun _ -> ())
            ~now:(fun () -> Engine.now engine)
        in
        { id; enclave = Poet_enclave.create enclave; height = 1; attempt = 0; gen = 0 })
  in
  (* Gossip dissemination: a block crosses ~log8(n) relay hops, each
     paying one link transfer plus propagation; the receiver's downlink
     also serializes concurrent block deliveries, which is what melts the
     fabric down when stale blocks multiply. *)
  let gossip_depth = int_of_float (Float.ceil (log (float_of_int (Int.max 2 n)) /. log 8.0)) in
  let downlink_free = Array.make n 0.0 in
  let propagation src dst =
    let src_region = Topology.region_of_node topology src in
    let dst_region = Topology.region_of_node topology dst in
    let hop () =
      Topology.latency topology rng ~src_region ~dst_region
      +. Topology.transfer_time topology ~bytes:block_bytes
    in
    let path = ref 0.0 in
    for _ = 1 to gossip_depth do
      path := !path +. hop ()
    done;
    !path
  in
  let relay_fanout = Int.min 8 (Int.max 1 (n - 1)) in
  let deliver_at dst base_arrival =
    (* The destination's NIC both receives the block body and relays it to
       its gossip fan-out, one transfer each, on the same constrained link
       — the 50 Mbps fabric of Appendix C.1.  Stale blocks multiply this
       traffic, which is what melts large PoET deployments down. *)
    let start = Float.max base_arrival downlink_free.(dst) in
    let busy =
      Topology.transfer_time topology ~bytes:block_bytes *. float_of_int (1 + relay_fanout)
    in
    downlink_free.(dst) <- start +. busy;
    start +. Topology.transfer_time topology ~bytes:block_bytes
  in
  let rec compete st =
    let height = st.height and gen = st.gen in
    let s = slot ~height ~attempt:st.attempt in
    let wait = Poet_enclave.draw_wait st.enclave ~height:s ~mean_wait:per_node_mean in
    Engine.schedule engine ~delay:wait (fun () ->
        if st.gen = gen then
          match Poet_enclave.certificate st.enclave ~height:s ~l_bits ~now:(Engine.now engine) with
          | None -> ()
          | Some cert ->
              if cert.Poet_enclave.lucky then produce st ~height
              else begin
                (* Out of luck for this slot: rejoin the race. *)
                st.attempt <- st.attempt + 1;
                compete st
              end)
  and produce st ~height =
    incr produced;
    let blk = { height; producer = st.id; born = Engine.now engine } in
    if not (Hashtbl.mem canonical height) then begin
      Hashtbl.replace canonical height blk;
      incr adopted;
      adoption_times := blk.born :: !adoption_times
    end;
    let uplink = Topology.transfer_time topology ~bytes:block_bytes in
    Array.iteri
      (fun j other ->
        if j <> st.id then begin
          (* The producer seeds 8 gossip streams; deeper fan-out is covered
             by the hop count inside [propagation]. *)
          let serialize = float_of_int (j mod 8) *. uplink /. 8.0 in
          let arrival = Engine.now engine +. serialize +. propagation st.id j in
          let finish = deliver_at j arrival in
          Engine.schedule_at engine ~time:finish (fun () -> receive other blk)
        end)
      states;
    advance st ~next:(height + 1)
  and receive st blk = if blk.height >= st.height then advance st ~next:(blk.height + 1)
  and advance st ~next =
    st.gen <- st.gen + 1;
    st.height <- next;
    st.attempt <- 0;
    compete st
  in
  Array.iter compete states;
  Engine.run engine ~until:duration;
  let sorted = List.sort Float.compare !adoption_times in
  let mean_interval =
    match sorted with
    | [] | [ _ ] -> 0.0
    | first :: _ ->
        let last = List.fold_left (fun _ x -> x) first sorted in
        (last -. first) /. float_of_int (List.length sorted - 1)
  in
  {
    produced = !produced;
    adopted = !adopted;
    stale_rate =
      (if !produced = 0 then 0.0
       else float_of_int (!produced - !adopted) /. float_of_int !produced);
    throughput = float_of_int (!adopted * txs_per_block) /. duration;
    mean_interval;
  }

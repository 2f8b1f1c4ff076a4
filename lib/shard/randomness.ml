open Repro_util
open Repro_crypto
open Repro_sim
module Enclave = Repro_sgx.Enclave
module Beacon = Repro_sgx.Beacon
module Mono_counter = Repro_sgx.Mono_counter

type outcome = {
  rnd : int64;
  rounds : int;
  elapsed : float;
  certificates : int;
  messages : int;
}

let paper_l_bits ~n =
  let logn = log (float_of_int (Int.max 2 n)) /. log 2.0 in
  Int.max 1 (int_of_float (Float.round (logn -. (log logn /. log 2.0))))

let measured_delta ~topology ~n =
  (* Maximum propagation of a 1 KB message across the deployment, tripled
     (the paper measured 2-4.5 s on the cluster, 5.9-15 s on GCP, growing
     with n through gossip depth). *)
  let regions = Topology.regions topology in
  let rng = Rng.create 11L in
  let worst = ref 0.0 in
  for src = 0 to regions - 1 do
    for dst = 0 to regions - 1 do
      for _ = 1 to 8 do
        let l = Topology.latency topology rng ~src_region:src ~dst_region:dst in
        if l > !worst then worst := l
      done
    done
  done;
  let hops = Float.ceil (log (float_of_int (Int.max 2 n)) /. log 8.0) in
  let base = (!worst +. Topology.transfer_time topology ~bytes:1024) *. hops in
  (* Conservative floor growing with gossip fan-out, scaled further on
     multi-region deployments (the paper measured 2-4.5 s on the cluster
     and 5.9-15 s on GCP). *)
  let floor = 0.7 +. (0.002 *. float_of_int n) in
  let region_factor = 1.0 +. (float_of_int (Topology.regions topology - 1) /. 3.5) in
  3.0 *. region_factor *. Float.max base floor

let run ?(seed = 5L) ~n ~topology ~delta ~l_bits ?(byzantine_withhold = 0) () =
  let engine = Engine.create ~seed in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let costs = Cost_model.default in
  let beacons =
    Array.init n (fun id ->
        let enclave =
          Enclave.create ~keystore ~id ~measurement:"beacon" ~rng:(Engine.rng engine) ~costs
            ~charge:(fun _ -> ())
            ~now:(fun () -> Engine.now engine)
        in
        Beacon.create enclave (Mono_counter.create ()) ~l_bits ~delta)
  in
  let withholds id = id < byzantine_withhold in
  let rng = Rng.split_named (Engine.rng engine) "beacon-net" in
  let messages = ref 0 in
  let locked : int64 option array = Array.make n None in
  let finished = ref None in
  (* (rounds, certificates, lock-in time) *)
  let rec round ~epoch ~rounds =
    Array.fill locked 0 n None;
    let best : (int, int64) Hashtbl.t = Hashtbl.create n in
    let certs = ref 0 in
    (* Every node invokes its enclave at the start of the round. *)
    Array.iteri
      (fun id beacon ->
        match Beacon.invoke beacon ~epoch with
        | Beacon.Cert cert when not (withholds id) ->
            incr certs;
            (* Broadcast: each peer receives after a jittered delay below ∆. *)
            for dst = 0 to n - 1 do
              incr messages;
              let src_region = Topology.region_of_node topology id in
              let dst_region = Topology.region_of_node topology dst in
              let delay =
                Topology.latency topology rng ~src_region ~dst_region
                +. Topology.transfer_time topology ~bytes:1024
              in
              Engine.schedule engine ~delay (fun () ->
                  if Beacon.verify keystore cert then begin
                    let cur = Hashtbl.find_opt best dst in
                    match cur with
                    | Some r when Int64.unsigned_compare r cert.Beacon.rnd <= 0 -> ()
                    | Some _ | None -> Hashtbl.replace best dst cert.Beacon.rnd
                  end)
            done
        | Beacon.Cert _ (* withheld *) | Beacon.Unlucky | Beacon.Already_invoked
        | Beacon.Guard_active | Beacon.Genesis_replayed ->
            ())
      beacons;
    (* After ∆, nodes lock in the lowest rnd they have seen. *)
    Engine.schedule engine ~delay:delta (fun () ->
        let any = ref false in
        for id = 0 to n - 1 do
          match Hashtbl.find_opt best id with
          | Some r ->
              locked.(id) <- Some r;
              any := true
          | None -> ()
        done;
        if !any then finished := Some (rounds, !certs, Engine.now engine)
        else round ~epoch:(epoch + 1) ~rounds:(rounds + 1))
  in
  round ~epoch:1 ~rounds:1;
  (* Run until a round succeeds. *)
  let rec drive horizon =
    Engine.run engine ~until:horizon;
    if Option.is_none !finished then drive (horizon +. (10.0 *. delta))
  in
  drive (2.0 *. delta);
  let rounds, certificates, lock_time = Option.get !finished in
  (* Agreement check: all honest nodes locked the same value. *)
  let values = Array.to_list locked |> List.filter_map Fun.id |> List.sort_uniq Int64.compare in
  (match values with
  | [ _ ] -> ()
  | _ -> Invariant.fail "Randomness.run: honest nodes disagree on rnd");
  {
    rnd = List.hd values;
    rounds;
    elapsed = lock_time;
    certificates;
    messages = !messages;
  }

let randhound_runtime ~n ~group ~topology =
  (* RandHound partitions n nodes into groups of c = [group]; each node
     creates and verifies O(c²) PVSS shares (public-key ops), the leader
     collects group transcripts, and the protocol completes in a constant
     number of communication rounds over the deployment's diameter. *)
  let pk_op = 1.0e-3 in
  let c = float_of_int group in
  (* The transcript carries O(N·c²) PVSS shares; producing and verifying
     them is the dominant cost (tens of seconds at N = 512). *)
  let per_node = c *. c *. pk_op in
  let leader = float_of_int n *. c *. c *. pk_op in
  let rng = Rng.create 3L in
  let regions = Topology.regions topology in
  let diameter = ref 0.0 in
  for src = 0 to regions - 1 do
    for dst = 0 to regions - 1 do
      let l = Topology.latency topology rng ~src_region:src ~dst_region:dst in
      if l > !diameter then diameter := l
    done
  done;
  let rounds = 6.0 in
  per_node +. leader +. (rounds *. !diameter)

open Repro_util
open Repro_crypto
open Repro_sim
open Repro_consensus
open Repro_shard

(* ------------------------------------------------------------------ *)
(* Parallel datapoint runner                                            *)
(*                                                                      *)
(* Every datapoint below is an independent seeded simulation, so the    *)
(* sweeps fan across a fixed-size domain pool.  Determinism: tasks      *)
(* share no mutable state (each creates its own Engine/Rng), shared     *)
(* configurations are memoized through keyed once-cells whose values    *)
(* are pure functions of the key, and results are joined in submission  *)
(* order — so the rendered tables are bit-for-bit identical for any     *)
(* worker count.                                                        *)
(* ------------------------------------------------------------------ *)

let jobs_override = Atomic.make None

let jobs_in_use () =
  match Atomic.get jobs_override with Some j -> j | None -> Pool.default_jobs ()

let the_pool : Pool.t option Atomic.t = Atomic.make None

let set_jobs j =
  (match Atomic.get the_pool with Some p -> Pool.shutdown p | None -> ());
  Atomic.set the_pool None;
  Atomic.set jobs_override (Some (if j < 1 then 1 else j))

let pool () =
  match Atomic.get the_pool with
  | Some p -> p
  | None ->
      let p = Pool.create ~jobs:(jobs_in_use ()) in
      Atomic.set the_pool (Some p);
      p

(* Optional observability hub: when installed, the shared runners request
   probes under names derived purely from their run parameters (the memo
   keys), never from scheduling — so hub dumps, which are sorted by name,
   stay byte-identical for any worker count. *)
let the_hub : Repro_obs.Hub.t option Atomic.t = Atomic.make None

let hub_probe name =
  match Atomic.get the_hub with
  | None -> Repro_obs.Probe.none
  | Some h -> Repro_obs.Hub.probe h name

(* One row per x-axis point, one cell per series: submit every
   [cell x s] before joining any, then join in submission order.  [x]
   maps an axis point to its plotted coordinate. *)
let sweep ~x xs series cell =
  let p = pool () in
  let submitted =
    List.map (fun v -> (x v, List.map (fun s -> Pool.submit p (fun () -> cell v s)) series)) xs
  in
  List.map (fun (x, futures) -> (x, List.map Pool.await futures)) submitted

(* Read one metric out of a sweep's runs (panels sharing runs project
   the same sweep). *)
let project metric rows = List.map (fun (x, runs) -> (x, List.map metric runs)) rows

(* ------------------------------------------------------------------ *)
(* Shared runners (memoized so Figures 8/15/16/17 share one sweep)      *)
(* ------------------------------------------------------------------ *)

let duration ~quick = if quick then 8.0 else 15.0

let warmup = 4.0

type site = Cluster | Gcp4 | Gcp8

let topology_of = function
  | Cluster -> Topology.lan ()
  | Gcp4 -> Topology.gcp 4
  | Gcp8 -> Topology.gcp 8

let site_code = function Cluster -> 0 | Gcp4 -> 4 | Gcp8 -> 8

(* Keyed once-cell: when parallel datapoints request the same
   configuration, exactly one computes it and the rest share the cell. *)
let pbft_cache : (string * int * int * int * bool * bool, Harness.result) Memo.t =
  Memo.create ()

let run_pbft ~quick ~byzantine ~leader_attack ~site ~variant ~n =
  let key = (variant.Config.name, n, byzantine, site_code site, quick, leader_attack) in
  Memo.get pbft_cache key (fun () ->
      let probe =
        hub_probe
          (Printf.sprintf "pbft:%s:n=%d:byz=%d:site=%d:quick=%b%s" variant.Config.name n
             byzantine (site_code site) quick
             (if leader_attack then ":atk=stall" else ""))
      in
      (* Fig. 16 right panel: the byzantine clique owns the low member ids,
         so it sits on the early leader slots, wins them with credible
         New_views, and stalls them — each won slot costs the committee one
         timeout-detected view change.  Attack runs bind one client per
         replica (10 clients would hand every intake to the clique once
         f >= 10, and a censored request no honest replica knows about
         never arms a watchdog) and scale the progress timeout to the 15 s
         simulated horizon — the paper's counts come from runs minutes
         long. *)
      let adversary =
        if leader_attack && byzantine > 0 then
          Some
            {
              Pbft.honest with
              Pbft.byzantine = List.init byzantine (fun i -> i);
              leader_attack = Some Pbft.Leader_stall;
            }
        else None
      in
      let tune c = if leader_attack then { c with Config.progress_timeout = 1.0 } else c in
      let clients = if leader_attack then n else 10 in
      Harness.run ~duration:(duration ~quick) ~warmup ~byzantine ?adversary ~tune ~probe ~variant
        ~n ~topology:(topology_of site)
        ~workload:(Harness.Open_loop { rate = 2200.0; clients })
        ())

(* The PBFT-family sweep behind Figures 8/9/10/15/16/17: one series per
   variant.  Without [byzantine] x is N; with it x is f, and HL runs
   3f+1 replicas where the attested variants run 2f+1. *)
let pbft_sweep ?(byzantine = false) ?(leader_attack = false) ?(variants = Config.all_variants)
    ~quick ~site xs =
  sweep ~x:float_of_int xs variants (fun x variant ->
      let n, byzantine = if byzantine then (Config.n_for_f variant ~f:x, x) else (x, 0) in
      run_pbft ~quick ~byzantine ~leader_attack ~site ~variant ~n)

let n_axis ~quick = if quick then [ 7; 19; 43; 79 ] else [ 7; 19; 31; 43; 55; 67; 79 ]

let f_axis ~quick = if quick then [ 1; 10; 25 ] else [ 1; 5; 10; 15; 20; 25 ]

let gcp_axis ~quick = if quick then [ 7; 43; 79 ] else n_axis ~quick

(* ---- Lockstep (Tendermint / IBFT) and Raft baselines -------------- *)

(* What the open-loop harness drives of a baseline committee. *)
type 'msg baseline = {
  start : unit -> unit;
  handle : member:int -> 'msg -> unit;
  request : Types.request -> 'msg;
  request_channel : Inbox.channel;
}

(* [protocol engine] runs before anything else draws from the engine's
   RNG — Lockstep draws its keystore there — and returns the committee
   constructor. *)
let run_baseline ~protocol ~n ~clients ~rate ~duration:dur =
  let engine = Engine.create ~seed:1L in
  let create = protocol engine in
  let commits = Commits.create engine in
  let network = Network.create engine ~topology:(Topology.lan ()) in
  let c, _ =
    Network.spawn network ~n ~inbox_mode:(Inbox.Shared 5000)
      ~handle:(fun c -> c.handle)
      (create ~n ~commits)
  in
  c.start ();
  let rng = Rng.create 3L in
  let next = ref 0 in
  for client = 0 to clients - 1 do
    let rec arrival () =
      let req_id = !next in
      incr next;
      let req = Types.request ~req_id ~client ~submitted:(Engine.now engine) () in
      Network.send_external network ~src_region:0 ~dst:(client mod n)
        ~channel:c.request_channel ~bytes:Types.request_bytes (c.request req);
      Engine.schedule engine
        ~delay:(Rng.exponential rng ~mean:(float_of_int clients /. rate))
        arrival
    in
    Engine.schedule engine ~delay:(Rng.float rng 1.0) arrival
  done;
  Engine.run engine ~until:dur;
  Commits.throughput commits ~warmup

let lockstep flavour engine =
  let keystore = Keys.create_keystore (Engine.rng engine) in
  fun ~n ~commits ~send ~charge ->
    let c = Lockstep.create ~engine ~keystore ~flavour ~n ~commits ~send ~charge in
    {
      start = (fun () -> Lockstep.start c);
      handle = Lockstep.handle c;
      request = Lockstep.request;
      request_channel = Lockstep.request_channel;
    }

let raft engine ~n ~commits ~send ~charge =
  let c = Raft.create ~engine ~n ~commits ~send ~charge in
  {
    start = (fun () -> Raft.start c);
    handle = Raft.handle c;
    request = Raft.request;
    request_channel = Raft.request_channel;
  }

(* ---- Sharded system runs ------------------------------------------ *)

type shard_run = {
  tps : float;
  s_abort_rate : float;
  series : (float * float) list;
}

let run_shards ~quick ?(site = Cluster) ?(mode = System.With_reference)
    ?(concurrency = System.Two_phase_locking) ?(variant = Config.ahl_plus) ?(theta = 0.2)
    ?(workload = Workload.Smallbank) ?(outstanding = 32) ?(fast_lane = false) ?reshard ?dur
    ~shards ~committee_size () =
  let dur = match dur with Some d -> d | None -> if quick then 15.0 else 25.0 in
  let cfg =
    {
      (System.default_config ~shards ~committee_size) with
      System.mode;
      concurrency;
      variant;
      topology = topology_of site;
      fast_lane;
    }
  in
  let sys = System.create cfg in
  let probe =
    let mode_tag =
      match mode with
      | System.With_reference -> "ref"
      | System.Client_driven -> "client"
      | System.Flattened -> "flat"
    in
    let cc_tag =
      match concurrency with System.Two_phase_locking -> "2pl" | System.Wait_die -> "waitdie"
    in
    let wl_tag =
      match workload with
      | Workload.Smallbank -> "sb"
      | Workload.Kvstore { updates_per_tx } -> Printf.sprintf "kvs%d" updates_per_tx
      | Workload.Hot_increments { increment_fraction } ->
          Printf.sprintf "hotinc%g" increment_fraction
    in
    let reshard_tag =
      match reshard with
      | None -> "none"
      | Some `Swap_all -> "swapall"
      | Some (`Batched b) -> "batched" ^ string_of_int b
    in
    hub_probe
      (Printf.sprintf
         "shards:%s:k=%d:n=%d:mode=%s:cc=%s:site=%d:theta=%g:wl=%s:out=%d:reshard=%s:dur=%g:quick=%b%s"
         cfg.System.variant.Config.name shards committee_size mode_tag cc_tag (site_code site)
         theta wl_tag outstanding reshard_tag dur quick
         (* Appended only when on, so every legacy probe name — and with it
            every existing hub dump — is byte-identical. *)
         (if fast_lane then ":lane=1" else ""))
  in
  System.set_probe sys probe;
  (* Keyspace grows with the deployment (more shards serve more users), so
     contention reflects skew rather than an artificially small universe. *)
  let wl =
    Workload.create workload ~keyspace:(Stdlib.max 20_000 (8_000 * shards)) ~theta
      ~rng:(Rng.create 4L)
  in
  Workload.setup wl sys ~initial_balance:5_000;
  Workload.start_closed_loop wl sys ~clients:(4 * shards) ~outstanding;
  (match reshard with
  | None -> ()
  | Some strategy ->
      (* Literal epoch transitions (Fig. 12): each one derives the next
         beacon assignment and swaps the transitioning replicas for real —
         consensus state wiped, snapshot fetched and verified, certified
         checkpoint installed, tail replayed — instead of the old modeled
         fixed offline window. *)
      let strategy =
        match strategy with `Swap_all -> `Swap_all | `Batched _ -> `Batched_log
      in
      System.advance_epoch sys ~at:(dur /. 3.0) ~seed:cfg.System.seed ~epoch:1 ~strategy;
      System.advance_epoch sys ~at:(2.0 *. dur /. 3.0) ~seed:cfg.System.seed ~epoch:2 ~strategy);
  System.run sys ~until:dur;
  (* The Fig.-13 bottleneck measure, exported next to the batch-size and
     pipeline-depth histograms so METRICS_fig13.json tells the whole
     plateau story. *)
  Repro_obs.Probe.set_gauge probe "2pc.ref_busy_fraction" (System.reference_busy_fraction sys);
  {
    tps = System.throughput sys ~warmup;
    s_abort_rate = System.abort_rate sys;
    series = System.throughput_series sys;
  }

(* Sharded throughput vs total N (Figures 13/18): each series fixes the
   protocol, committee size, coordination mode and workload, and the run
   forms N / committee-size shards. *)
let shard_sweep ~quick ns series =
  project
    (fun r -> r.tps)
    (sweep ~x:float_of_int ns series (fun total (variant, csize, mode, workload) ->
         run_shards ~quick ~variant ~mode ~workload ~shards:(Stdlib.max 1 (total / csize))
           ~committee_size:csize ()))

let zipf_axis ~quick = if quick then [ 0.0; 0.99; 1.99 ] else [ 0.0; 0.49; 0.99; 1.49; 1.99 ]

(* ---- PoET (Figures 21/22) ----------------------------------------- *)

let poet_cache : (int * float * int * bool, Poet.result) Memo.t = Memo.create ~size:32 ()

(* One column per (block size, PoET vs PoET+) pair on the constrained
   cluster; Figures 21 and 22 read the same memoized runs. *)
let poet_panel ~quick ~title pick =
  let topology = Topology.constrained_lan ~latency_ms:100.0 ~bandwidth_mbps:50.0 in
  let sizes = if quick then [ 2; 8 ] else [ 2; 4; 8 ] in
  let dur = if quick then 1200.0 else 1800.0 in
  let series = List.concat_map (fun mb -> [ (mb, false); (mb, true) ]) sizes in
  Results.panel ~title ~x_label:"N"
    ~columns:
      (List.map
         (fun (mb, plus) -> Printf.sprintf "%s %dMB" (if plus then "PoET+" else "PoET") mb)
         series)
    ~rows:
      (project pick
         (sweep ~x:float_of_int
            (if quick then [ 8; 128 ] else [ 2; 8; 32; 128 ])
            series
            (fun n (mb, plus) ->
              let block_mb = float_of_int mb and l_bits = if plus then Poet.plus_l_bits ~n else 0 in
              Memo.get poet_cache (n, block_mb, l_bits, quick) (fun () ->
                  Poet.run ~n ~topology ~block_mb ~l_bits ~duration:dur ()))))

(* ------------------------------------------------------------------ *)
(* Appendices                                                          *)
(* ------------------------------------------------------------------ *)

let appendix_a () =
  (* Exercise the rollback defense end to end and report each check as
     pass(1)/fail(0). *)
  let engine = Engine.create ~seed:9L in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let enclave =
    Repro_sgx.Enclave.create ~keystore ~id:0 ~measurement:"appendix-a" ~rng:(Engine.rng engine)
      ~costs:Cost_model.free
      ~charge:(fun _ -> ())
      ~now:(fun () -> Engine.now engine)
  in
  let a2m = Repro_sgx.A2m.create enclave ~watermark_window:Config.watermark_window in
  let ok1 = Repro_sgx.A2m.append a2m ~log:1 ~slot:5 ~digest_tag:111 <> None in
  let stale = Repro_sgx.A2m.seal_state a2m in
  let ok2 = Repro_sgx.A2m.append a2m ~log:1 ~slot:6 ~digest_tag:222 <> None in
  (* Host rolls the enclave back to the stale seal and tries to get slot 6
     re-attested with a different digest. *)
  Repro_sgx.A2m.restart a2m ~resume_with:(Some stale);
  let refused_while_recovering = Repro_sgx.A2m.append a2m ~log:1 ~slot:6 ~digest_tag:999 = None in
  List.iteri (fun i ckp -> Repro_sgx.A2m.record_peer_checkpoint a2m ~peer:(i + 1) ~ckp)
    [ 16; 16; 32; 16 ];
  let hm = Repro_sgx.A2m.estimate_hm a2m ~f:2 in
  let rejects_low = not (Repro_sgx.A2m.finish_recovery a2m ~f:2 ~stable_checkpoint:16) in
  let accepts_high = Repro_sgx.A2m.finish_recovery a2m ~f:2 ~stable_checkpoint:(Option.get hm) in
  let resumed = Repro_sgx.A2m.append a2m ~log:1 ~slot:200 ~digest_tag:7 <> None in
  let b v = if v then 1.0 else 0.0 in
  [
    Results.panel ~title:"Recovery protocol checks" ~x_label:"check#" ~columns:[ "result" ]
      ~rows:
        [
          (1.0, [ b ok1 ]) (* append before crash *);
          (2.0, [ b ok2 ]) (* append after seal *);
          (3.0, [ b refused_while_recovering ]);
          (4.0, [ b (hm = Some (16 + 128)) ]) (* HM = ckpM + L *);
          (5.0, [ b rejects_low ]);
          (6.0, [ b accepts_high ]);
          (7.0, [ b resumed ]);
        ];
  ]

let appendix_b () =
  let shards = 10 in
  let mc ~args ~touches =
    let rng = Rng.create 17L in
    let trials = 200_000 in
    let hits = ref 0 in
    for _ = 1 to trials do
      let sh = List.init args (fun _ -> Rng.int rng shards) in
      if List.length (List.sort_uniq Int.compare sh) = touches then incr hits
    done;
    float_of_int !hits /. float_of_int trials
  in
  let cases =
    List.concat_map
      (fun args ->
        List.filter_map
          (fun touches ->
            let analytic = Sizing.cross_shard_probability ~shards ~args ~touches in
            if analytic < 1e-6 then None else Some (args, touches, analytic))
          [ 1; 2; 3; 4 ])
      [ 1; 2; 3; 4 ]
  in
  [
    Results.panel ~title:"Cross-shard probability" ~x_label:"(d,x)"
      ~columns:[ "d"; "x"; "analytic"; "monte-carlo" ]
      ~rows:
        (sweep
           ~x:(fun (args, touches, _) -> float_of_int ((args * 10) + touches))
           cases
           [
             (fun (args, _, _) -> float_of_int args);
             (fun (_, touches, _) -> float_of_int touches);
             (fun (_, _, analytic) -> analytic);
             (fun (args, touches, _) -> mc ~args ~touches);
           ]
           (fun case column -> column case));
  ]

(* ------------------------------------------------------------------ *)
(* The registry: one entry per table/figure of the paper, in order     *)
(* ------------------------------------------------------------------ *)

let table id caption ~header rows =
  (id, fun ~quick:_ -> Results.text_figure ~id ~caption (Table.render ~header ~rows:(rows ())))

let figure id caption panels =
  (id, fun ~quick -> Results.figure ~id ~caption (panels ~quick))

let variant_columns = [ "HL"; "AHL"; "AHL+"; "AHLR" ]

let throughput r = r.Harness.throughput

let figures : (string * (quick:bool -> Results.figure)) list =
  [
    table "table1" "Comparison with other sharded blockchains"
      ~header:[ "System"; "#machines"; "Over-subscription"; "Tx model"; "Distributed tx" ]
      (fun () ->
        [
          [ "Elastico"; "800"; "2"; "UTXO"; "no" ];
          [ "OmniLedger"; "60"; "67"; "UTXO"; "no" ];
          [ "RapidChain"; "32"; "125"; "UTXO"; "yes" ];
          [ "Ours"; "1400"; "1"; "General workload"; "yes" ];
        ]);
    table "table2" "Runtime costs of enclave operations (µs)" ~header:[ "Operation"; "Time (µs)" ]
      (fun () ->
        let c = Cost_model.default in
        let us x = Table.fnum (x *. 1e6) in
        [
          [ "ECDSA signing"; us c.Cost_model.ecdsa_sign ];
          [ "ECDSA verification"; us c.Cost_model.ecdsa_verify ];
          [ "SHA256"; us c.Cost_model.sha256 ];
          [ "AHL append"; us c.Cost_model.ahl_append ];
          [ "AHLR aggregation (f=8)"; us (Cost_model.ahlr_aggregate c ~f:8) ];
          [ "RandomnessBeacon"; us c.Cost_model.beacon_invoke ];
          [ "Enclave switch"; us c.Cost_model.enclave_switch ];
          [ "Remote attestation"; us c.Cost_model.remote_attestation ];
        ]);
    table "table3" "Latency (ms) between GCP regions"
      ~header:("zone" :: Array.to_list Topology.gcp_region_names)
      (fun () ->
        List.init 8 (fun i ->
            Topology.gcp_region_names.(i)
            :: List.init 8 (fun j -> Table.fnum Topology.gcp_latency_matrix_ms.(i).(j))));
    figure "fig2" "Comparison of BFT protocols" (fun ~quick ->
        let dur = duration ~quick in
        let baseline protocol ~n ~clients =
          run_baseline ~protocol ~n ~clients ~rate:2200.0 ~duration:dur
        in
        let baselines =
          [
            baseline (lockstep Lockstep.Tendermint);
            baseline raft;
            baseline (lockstep Lockstep.Ibft);
          ]
        in
        let hl_open ~n ~clients:_ =
          throughput
            (run_pbft ~quick ~byzantine:0 ~leader_attack:false ~site:Cluster ~variant:Config.hl ~n)
        in
        let hl_closed ~n ~clients =
          throughput
            (Harness.run ~duration:dur ~warmup ~variant:Config.hl ~n ~topology:(Topology.lan ())
               ~workload:(Harness.Closed_loop { clients; outstanding = 8 })
               ())
        in
        let columns = [ "HL(PBFT)"; "Tendermint"; "Quorum(Raft)"; "Quorum(IBFT)" ] in
        [
          Results.panel ~title:"Throughput vs N" ~x_label:"N" ~columns
            ~rows:
              (sweep ~x:float_of_int
                 (if quick then [ 7; 19; 43 ] else [ 7; 19; 31; 43; 55; 67 ])
                 (hl_open :: baselines)
                 (fun n run -> run ~n ~clients:10));
          Results.panel ~title:"Throughput vs #clients (N=7)" ~x_label:"clients" ~columns
            ~rows:
              (sweep ~x:float_of_int
                 (if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ])
                 (hl_closed :: baselines)
                 (fun clients run -> run ~n:7 ~clients));
        ]);
    figure "fig8" "AHL+ performance on the local cluster" (fun ~quick ->
        [
          Results.panel ~title:"Throughput w/o failures" ~x_label:"N" ~columns:variant_columns
            ~rows:(project throughput (pbft_sweep ~quick ~site:Cluster (n_axis ~quick)));
          Results.panel ~title:"Throughput w/ failures (conflicting-message attack)" ~x_label:"f"
            ~columns:variant_columns
            ~rows:
              (project throughput
                 (pbft_sweep ~byzantine:true ~quick ~site:Cluster (f_axis ~quick)));
        ]);
    figure "fig9" "AHL+ performance on GCP" (fun ~quick ->
        List.map
          (fun (title, site) ->
            Results.panel ~title ~x_label:"N" ~columns:variant_columns
              ~rows:(project throughput (pbft_sweep ~quick ~site (gcp_axis ~quick))))
          [ ("4 regions", Gcp4); ("8 regions", Gcp8) ]);
    figure "fig10" "Effect of each optimization on throughput" (fun ~quick ->
        let panel ?byzantine title x_label xs =
          Results.panel ~title ~x_label
            ~columns:[ "HL"; "AHL"; "AHL+op1"; "AHL+op1,2"; "AHL+op1,2,3" ]
            ~rows:
              (project throughput
                 (pbft_sweep ?byzantine ~quick ~site:Cluster
                    ~variants:
                      [ Config.hl; Config.ahl; Config.ahl_opt1; Config.ahl_plus; Config.ahlr ]
                    xs))
        in
        [
          panel "Throughput w/o failures" "N" [ 7; 19 ];
          panel ~byzantine:true "Throughput w/ failures" "f" [ 5; 20 ];
        ]);
    figure "fig11" "Evaluation of shard formation" (fun ~quick ->
        let total = 2000 in
        let size rule fraction =
          float_of_int (Sizing.min_committee_size ~total ~fraction ~rule ~security_bits:20)
        in
        let formation site =
          sweep ~x:float_of_int
            (if quick then [ 32; 128; 512 ] else [ 32; 64; 128; 256; 512 ])
            [ `Randhound; `Ours ]
            (fun n protocol ->
              let topology = topology_of site in
              match protocol with
              | `Randhound -> Randomness.randhound_runtime ~n ~group:16 ~topology
              | `Ours ->
                  let delta = Randomness.measured_delta ~topology ~n in
                  let l_bits = Randomness.paper_l_bits ~n in
                  (Randomness.run ~n ~topology ~delta ~l_bits ()).Randomness.elapsed)
        in
        [
          Results.panel ~title:"Committee size vs % Byzantine (N=2000, 2^-20)" ~x_label:"%byz"
            ~columns:[ "OmniLedger(PBFT)"; "Ours(AHL+)" ]
            ~rows:
              (List.map
                 (fun pct ->
                   let fraction = float_of_int pct /. 100.0 in
                   ( float_of_int pct,
                     [ size Sizing.Pbft_third fraction; size Sizing.Ahl_half fraction ] ))
                 (if quick then [ 5; 15; 25; 30 ] else [ 2; 5; 10; 15; 20; 25; 30; 33 ]));
          Results.panel ~title:"Committee formation time, cluster (s)" ~x_label:"N"
            ~columns:[ "RandHound"; "Ours" ] ~rows:(formation Cluster);
          Results.panel ~title:"Committee formation time, GCP (s)" ~x_label:"N"
            ~columns:[ "RandHound"; "Ours" ] ~rows:(formation Gcp8);
        ]);
    figure "fig12" "Performance during shard reconfiguration" (fun ~quick ->
        let sizes = if quick then [ 9 ] else [ 9; 17; 33 ] in
        let strategies =
          [
            ("No Reshard", fun _ -> None);
            ("Swap all", fun _ -> Some `Swap_all);
            ("Swap Log[n]", fun n -> Some (`Batched (Sizing.swap_batch_size ~n)));
          ]
        in
        (* One run per (size, strategy); the first size's runs also provide
           the throughput-over-time panel. *)
        let runs =
          sweep ~x:float_of_int sizes strategies (fun n (_, reshard) ->
              run_shards ~quick ~shards:2 ~committee_size:n ?reshard:(reshard n)
                ~dur:(if quick then 30.0 else 60.0)
                ())
        in
        let over_time = List.map (fun r -> r.series) (snd (List.hd runs)) in
        (* Align the three time series on common bins. *)
        let times = List.sort_uniq Float.compare (List.concat_map (List.map fst) over_time) in
        let columns = List.map fst strategies in
        [
          Results.panel ~title:"Avg. throughput" ~x_label:"committee size n" ~columns
            ~rows:(project (fun r -> r.tps) runs);
          Results.panel
            ~title:(Printf.sprintf "Throughput over time (n=%d)" (List.hd sizes))
            ~x_label:"time (s)" ~columns
            ~rows:
              (List.map
                 (fun time ->
                   ( time,
                     List.map
                       (fun s -> Option.value (List.assoc_opt time s) ~default:0.0)
                       over_time ))
                 times);
        ]);
    figure "fig13" "Sharding on the local cluster, with and without the reference committee"
      (fun ~quick ->
        let totals = if quick then [ 18; 36 ] else [ 8; 18; 36 ] in
        let sb = Workload.Smallbank in
        [
          Results.panel ~title:"Throughput (SmallBank)" ~x_label:"N"
            ~columns:[ "AHL+;w R"; "HL;w R"; "AHL+;w/o R"; "HL;w/o R"; "AHL+;flat" ]
            ~rows:
              (shard_sweep ~quick
                 (if quick then [ 12; 36 ] else [ 8; 12; 18; 24; 36 ])
                 [
                   (Config.ahl_plus, 3, System.With_reference, sb);
                   (Config.hl, 4, System.With_reference, sb);
                   (Config.ahl_plus, 3, System.Client_driven, sb);
                   (Config.hl, 4, System.Client_driven, sb);
                   (Config.ahl_plus, 3, System.Flattened, sb);
                 ]);
          Results.panel ~title:"Abort rate vs Zipf" ~x_label:"zipf"
            ~columns:(List.map (Printf.sprintf "N=%d") totals)
            ~rows:
              (sweep ~x:Fun.id (zipf_axis ~quick) totals (fun theta total ->
                   (run_shards ~quick ~theta ~shards:(total / 3) ~committee_size:3 ())
                     .s_abort_rate));
        ]);
    (* The fast-lane companion to Fig. 13 (DESIGN §18): the same
       high-contention cluster, under the Hot-increments mix, with the
       commutative lane off vs on.  Lane off, every credit-only increment
       is an ordinary cross-shard 2PC transaction whose lock acquisitions
       pile up on the Zipf head; lane on, the same transactions append
       deltas with no locks and only the conditional sendPayments contend.
       The third panel sweeps the mix itself (CRDV's read-write-ratio
       analogue): how much commutativity the workload must declare before
       the lane pays off. *)
    figure "fig13_fastlane"
      "Commutative fast lane under contention (6 shards, Hot-increments mix): abort rate and \
       throughput vs Zipf with the lane off/on, and throughput vs the mergeable fraction at \
       zipf 1.49"
      (fun ~quick ->
        let lanes = [ false; true ] in
        let run ~theta increment_fraction fast_lane =
          run_shards ~quick ~theta ~workload:(Workload.Hot_increments { increment_fraction })
            ~fast_lane ~shards:6 ~committee_size:3 ()
        in
        (* One run per (theta, lane); the abort and throughput panels read
           the same results. *)
        let cells =
          sweep ~x:Fun.id
            (if quick then [ 0.0; 1.49; 1.99 ] else [ 0.0; 0.49; 0.99; 1.49; 1.99 ])
            lanes
            (fun theta -> run ~theta 0.9)
        in
        let columns = [ "lane off"; "lane on" ] in
        [
          Results.panel ~title:"Abort rate vs Zipf" ~x_label:"zipf" ~columns
            ~rows:(project (fun r -> r.s_abort_rate) cells);
          Results.panel ~title:"Throughput vs Zipf" ~x_label:"zipf" ~columns
            ~rows:(project (fun r -> r.tps) cells);
          Results.panel ~title:"Throughput vs mergeable fraction (zipf 1.49)"
            ~x_label:"increment fraction" ~columns
            ~rows:
              (project
                 (fun r -> r.tps)
                 (sweep ~x:Fun.id
                    (if quick then [ 0.0; 0.5; 1.0 ] else [ 0.0; 0.25; 0.5; 0.75; 1.0 ])
                    lanes (run ~theta:1.49)));
        ]);
    figure "fig14" "Sharding performance on GCP (SmallBank, no reference committee)"
      (fun ~quick ->
        let runs =
          sweep ~x:float_of_int
            (if quick then [ 162; 486; 972 ] else [ 162; 324; 486; 648; 810; 972 ])
            [ 27; 79 ]
            (fun total csize ->
              let shards = Stdlib.max 1 (total / csize) in
              (* The paper drives 432 clients with 128 outstanding requests
                 each; the window below saturates the WAN pipeline the same
                 way. *)
              ( (run_shards ~quick ~site:Gcp8 ~mode:System.Client_driven ~shards
                   ~committee_size:csize ~outstanding:64 ())
                  .tps,
                float_of_int shards ))
        in
        [
          Results.panel ~title:"Throughput" ~x_label:"N" ~columns:[ "12.5%"; "25%" ]
            ~rows:(project fst runs);
          Results.panel ~title:"#Shards" ~x_label:"N" ~columns:[ "12.5%"; "25%" ]
            ~rows:(project snd runs);
        ]);
    figure "fig15" "Consensus latency (s)" (fun ~quick ->
        let latency site xs =
          project (fun r -> r.Harness.latency_mean) (pbft_sweep ~quick ~site xs)
        in
        [
          Results.panel ~title:"Latency on cluster" ~x_label:"N" ~columns:variant_columns
            ~rows:(latency Cluster (n_axis ~quick));
          Results.panel ~title:"Latency on GCP (8 regions)" ~x_label:"N" ~columns:variant_columns
            ~rows:(latency Gcp8 (gcp_axis ~quick));
        ]);
    (* The attack panel runs the leader-stall adversary (byzantine members
       that win the leader slot now actually attack it) rather than fig8's
       conflicting-message clique, which never campaigns and so never
       costs a view change. *)
    figure "fig16" "Number of view changes" (fun ~quick ->
        let view_changes rows = project (fun r -> float_of_int r.Harness.view_changes) rows in
        [
          Results.panel ~title:"#View-changes, normal case" ~x_label:"N" ~columns:variant_columns
            ~rows:(view_changes (pbft_sweep ~quick ~site:Cluster (n_axis ~quick)));
          Results.panel ~title:"#View-changes, under attack" ~x_label:"f" ~columns:variant_columns
            ~rows:
              (view_changes
                 (pbft_sweep ~byzantine:true ~leader_attack:true ~quick ~site:Cluster
                    (f_axis ~quick)));
        ]);
    figure "fig17" "Per-block cost breakdown (observer CPU seconds)" (fun ~quick ->
        let runs = pbft_sweep ~quick ~site:Cluster (n_axis ~quick) in
        [
          Results.panel ~title:"Consensus cost" ~x_label:"N" ~columns:variant_columns
            ~rows:(project (fun r -> r.Harness.consensus_cost_per_block) runs);
          Results.panel ~title:"Execution cost" ~x_label:"N" ~columns:variant_columns
            ~rows:(project (fun r -> r.Harness.execution_cost_per_block) runs);
        ]);
    figure "fig18" "Sharding with KVStore vs SmallBank" (fun ~quick ->
        let sb = Workload.Smallbank and kvs = Workload.Kvstore { updates_per_tx = 3 } in
        let r = System.With_reference in
        [
          Results.panel ~title:"Sharding throughput" ~x_label:"N"
            ~columns:[ "SB-AHL+"; "SB-HL"; "KVS-AHL+"; "KVS-HL" ]
            ~rows:
              (shard_sweep ~quick
                 (if quick then [ 12; 36 ] else [ 8; 12; 18; 24; 36 ])
                 [
                   (Config.ahl_plus, 3, r, sb);
                   (Config.hl, 4, r, sb);
                   (Config.ahl_plus, 3, r, kvs);
                   (Config.hl, 4, r, kvs);
                 ]);
        ]);
    figure "fig19" "Throughput vs workload on GCP (N=19)" (fun ~quick ->
        (* Each BLOCKBENCH client contributes ~32 req/s; the configured
           rate caps the aggregate, so throughput climbs with the client
           count until either the cap or the protocol's capacity binds. *)
        let panel rate =
          Results.panel
            ~title:(Printf.sprintf "%.0f requests/second" rate)
            ~x_label:"clients" ~columns:[ "HL"; "AHL+"; "AHLR" ]
            ~rows:
              (sweep ~x:float_of_int
                 (if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64; 128 ])
                 [ Config.hl; Config.ahl_plus; Config.ahlr ]
                 (fun clients variant ->
                   let offered = Float.min rate (32.0 *. float_of_int clients) in
                   throughput
                     (Harness.run ~duration:(duration ~quick) ~warmup ~variant ~n:19
                        ~topology:(topology_of Gcp8)
                        ~workload:(Harness.Open_loop { rate = offered; clients })
                        ())))
        in
        [ panel 256.0; panel 1024.0 ]);
    figure "fig20" "Throughput vs workload on the local cluster (N=19)" (fun ~quick ->
        (* SmallBank transactions execute chaincode logic (reads + balance
           updates); KVStore writes are cheap — the only knob that
           differs. *)
        let panel title costs =
          Results.panel ~title ~x_label:"clients" ~columns:variant_columns
            ~rows:
              (sweep ~x:float_of_int
                 (if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ])
                 Config.all_variants
                 (fun clients variant ->
                   throughput
                     (Harness.run ~duration:(duration ~quick) ~warmup ~costs ~variant ~n:19
                        ~topology:(Topology.lan ())
                        ~workload:(Harness.Closed_loop { clients; outstanding = 8 })
                        ())))
        in
        let c = Cost_model.default in
        [
          panel "Smallbank" { c with Cost_model.tx_execute = 3.0 *. c.Cost_model.tx_execute };
          panel "KVStore" c;
        ]);
    figure "fig21" "PoET and PoET+ throughput (tps)" (fun ~quick ->
        [ poet_panel ~quick ~title:"Throughput on cluster" (fun r -> r.Poet.throughput) ]);
    figure "fig22" "PoET and PoET+ stale-block rate" (fun ~quick ->
        [ poet_panel ~quick ~title:"Stale rate on cluster" (fun r -> r.Poet.stale_rate) ]);
    figure "appendix_a" "Rollback-attack defense (1 = behaves as specified)" (fun ~quick:_ ->
        appendix_a ());
    figure "appendix_b"
      "Probability a d-argument transaction touches x of 10 shards (Eq. 3 vs Monte Carlo)"
      (fun ~quick:_ -> appendix_b ());
    (* Beyond the paper: Section 6.4's concurrency-control hint.  One run
       per (theta, concurrency); both panels read the same results. *)
    figure "ablation_cc"
      "Extension (Section 6.4): 2PL vs wait-die lock waiting under contention (6 shards, SmallBank)"
      (fun ~quick ->
        let cells =
          sweep ~x:Fun.id (zipf_axis ~quick) [ System.Two_phase_locking; System.Wait_die ]
            (fun theta concurrency ->
              run_shards ~quick ~theta ~concurrency ~shards:6 ~committee_size:3 ())
        in
        let columns = [ "2PL"; "Wait-die" ] in
        [
          Results.panel ~title:"Abort rate vs Zipf" ~x_label:"zipf" ~columns
            ~rows:(project (fun r -> r.s_abort_rate) cells);
          Results.panel ~title:"Throughput vs Zipf" ~x_label:"zipf" ~columns
            ~rows:(project (fun r -> r.tps) cells);
        ]);
  ]

(* The one recording path.  Memoized runs from an earlier figure would
   record nothing into this figure's hub, so the caches go first: every
   datapoint is recomputed, and the hub holds exactly the runs this
   figure makes. *)
let record f ~quick =
  Memo.clear pbft_cache;
  Memo.clear poet_cache;
  let hub = Repro_obs.Hub.create () in
  Atomic.set the_hub (Some hub);
  let figure = Fun.protect ~finally:(fun () -> Atomic.set the_hub None) (fun () -> f ~quick) in
  (figure, hub)

let all_ids = List.map fst figures

let by_id id = List.assoc_opt id figures

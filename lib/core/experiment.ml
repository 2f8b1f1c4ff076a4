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

let set_hub h = Atomic.set the_hub h

let hub_probe name =
  match Atomic.get the_hub with
  | None -> Repro_obs.Probe.none
  | Some h -> Repro_obs.Hub.probe h name

(* Submit every cell of a row-structured sweep before joining any, then
   join in submission order.  [rows] pairs each x-axis point with the
   thunks producing its column values. *)
let par_cells rows =
  let p = pool () in
  let submitted =
    List.map (fun (x, thunks) -> (x, List.map (fun t -> Pool.submit p t) thunks)) rows
  in
  List.map (fun (x, futures) -> (x, List.map Pool.await futures)) submitted

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

let cpu_scale_of = function Cluster -> 1.0 | Gcp4 | Gcp8 -> 3.5

(* On WAN deployments the relay deadline must absorb round-trip jitter. *)
let tune_of site (c : Config.t) =
  match site with
  | Cluster -> c
  | Gcp4 | Gcp8 -> { c with Config.relay_timeout = 2.5; relay_tail_prob = 0.005 }

(* Keyed once-cell: when parallel datapoints request the same
   configuration, exactly one computes it and the rest share the cell. *)
let pbft_cache : (string * int * int * int * bool * bool, Harness.result) Memo.t =
  Memo.create ()

let run_pbft ?(quick = false) ?(byzantine = 0) ?(leader_attack = false) ~site ~variant ~n () =
  let site_code = match site with Cluster -> 0 | Gcp4 -> 4 | Gcp8 -> 8 in
  let key = (variant.Config.name, n, byzantine, site_code, quick, leader_attack) in
  Memo.get pbft_cache key (fun () ->
      let probe =
        hub_probe
          (Printf.sprintf "pbft:%s:n=%d:byz=%d:site=%d:quick=%b%s" variant.Config.name n
             byzantine site_code quick
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
      let byz_ids, byz_strategy =
        if leader_attack && byzantine > 0 then
          ( Some (List.init byzantine (fun i -> i)),
            Some { Pbft.default_byz_strategy with Pbft.leader_attack = Some Pbft.Leader_stall }
          )
        else (None, None)
      in
      let tune c =
        let c = tune_of site c in
        if leader_attack then { c with Config.progress_timeout = 1.0 } else c
      in
      let clients = if leader_attack then n else 10 in
      Harness.run ~duration:(duration ~quick) ~warmup ~byzantine ?byz_ids ?byz_strategy
        ~cpu_scale:(cpu_scale_of site) ~tune ~probe ~variant ~n
        ~topology:(topology_of site)
        ~workload:(Harness.Open_loop { rate = 2200.0; clients })
        ())

let n_axis ~quick = if quick then [ 7; 19; 43; 79 ] else [ 7; 19; 31; 43; 55; 67; 79 ]

let f_axis ~quick = if quick then [ 1; 10; 25 ] else [ 1; 5; 10; 15; 20; 25 ]

(* ---- Lockstep (Tendermint / IBFT) and Raft baselines -------------- *)

(* What the open-loop harness drives of a baseline committee. *)
type 'msg baseline = {
  start : unit -> unit;
  handle : member:int -> 'msg -> unit;
  submit : Types.request -> 'msg;
  request_channel : Inbox.channel;
}

(* [protocol engine] runs before anything else draws from the engine's
   RNG — Lockstep draws its keystore there — and returns the committee
   constructor. *)
let run_baseline ~protocol ~n ~clients ~rate ~duration:dur =
  let engine = Engine.create ~seed:1L in
  let create = protocol engine in
  let metrics = Metrics.create engine in
  let topology = Topology.lan () in
  let network = Network.create engine ~topology in
  let committee = ref None in
  let nodes =
    Array.init n (fun id ->
        Node.create engine ~id ~inbox_mode:(Inbox.Shared 5000) ~handler:(fun node msg ->
            match !committee with
            | Some c -> c.handle ~member:(Node.id node) msg
            | None -> ()))
  in
  Array.iter (Network.register network) nodes;
  let c =
    create ~n ~metrics
      ~send:(fun ~src ~dst ~channel ~bytes m -> Network.send network ~src:nodes.(src) ~dst ~channel ~bytes m)
      ~charge:(fun ~member cost -> Node.charge nodes.(member) cost)
  in
  committee := Some c;
  c.start ();
  let rng = Rng.create 3L in
  let next = ref 0 in
  for client = 0 to clients - 1 do
    let rec arrival () =
      let req_id = !next in
      incr next;
      let req = Types.request ~req_id ~client ~submitted:(Engine.now engine) () in
      Network.send_external network ~src_region:0 ~dst:(client mod n)
        ~channel:c.request_channel ~bytes:240 (c.submit req);
      Engine.schedule engine
        ~delay:(Rng.exponential rng ~mean:(float_of_int clients /. rate))
        arrival
    in
    Engine.schedule engine ~delay:(Rng.float rng 1.0) arrival
  done;
  Engine.run engine ~until:dur;
  Metrics.throughput metrics ~warmup

let lockstep flavour engine =
  let keystore = Keys.create_keystore (Engine.rng engine) in
  fun ~n ~metrics ~send ~charge ->
    let c =
      Lockstep.create ~engine ~keystore ~costs:Cost_model.default ~flavour ~n ~batch_max:200
        ~metrics ~send ~charge
    in
    {
      start = (fun () -> Lockstep.start c);
      handle = Lockstep.handle c;
      submit = Lockstep.submit c;
      request_channel = Lockstep.request_channel;
    }

let raft engine ~n ~metrics ~send ~charge =
  let c = Raft.create ~engine ~costs:Cost_model.default ~n ~batch_max:200 ~metrics ~send ~charge in
  {
    start = (fun () -> Raft.start c);
    handle = Raft.handle c;
    submit = Raft.submit c;
    request_channel = Raft.request_channel;
  }

(* ---- Sharded system runs ------------------------------------------ *)

type shard_run = {
  tps : float;
  s_abort_rate : float;
  ref_busy : float;
  s_latency : float;
  series : (float * float) list;
}

let run_shards ?(quick = false) ?(site = Cluster) ?(mode = System.With_reference)
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
      cpu_scale = cpu_scale_of site;
      tune = tune_of site;
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
         cfg.System.variant.Config.name shards committee_size mode_tag cc_tag
         (match site with Cluster -> 0 | Gcp4 -> 4 | Gcp8 -> 8)
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
    ref_busy = System.reference_busy_fraction sys;
    s_latency = Stats.mean (System.latency_stats sys);
    series = System.throughput_series sys;
  }

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Results.text_figure ~id:"table1" ~caption:"Comparison with other sharded blockchains"
    (Table.render
       ~header:[ "System"; "#machines"; "Over-subscription"; "Tx model"; "Distributed tx" ]
       ~rows:
         [
           [ "Elastico"; "800"; "2"; "UTXO"; "no" ];
           [ "OmniLedger"; "60"; "67"; "UTXO"; "no" ];
           [ "RapidChain"; "32"; "125"; "UTXO"; "yes" ];
           [ "Ours"; "1400"; "1"; "General workload"; "yes" ];
         ])

let table2 () =
  let c = Cost_model.default in
  let us x = x *. 1e6 in
  Results.text_figure ~id:"table2" ~caption:"Runtime costs of enclave operations (µs)"
    (Table.render
       ~header:[ "Operation"; "Time (µs)" ]
       ~rows:
         [
           [ "ECDSA signing"; Table.fnum (us c.Cost_model.ecdsa_sign) ];
           [ "ECDSA verification"; Table.fnum (us c.Cost_model.ecdsa_verify) ];
           [ "SHA256"; Table.fnum (us c.Cost_model.sha256) ];
           [ "AHL append"; Table.fnum (us c.Cost_model.ahl_append) ];
           [ "AHLR aggregation (f=8)"; Table.fnum (us (Cost_model.ahlr_aggregate c ~f:8)) ];
           [ "RandomnessBeacon"; Table.fnum (us c.Cost_model.beacon_invoke) ];
           [ "Enclave switch"; Table.fnum (us c.Cost_model.enclave_switch) ];
           [ "Remote attestation"; Table.fnum (us c.Cost_model.remote_attestation) ];
         ])

let table3 () =
  let names = Topology.gcp_region_names in
  let m = Topology.gcp_latency_matrix_ms in
  Results.text_figure ~id:"table3" ~caption:"Latency (ms) between GCP regions"
    (Table.render
       ~header:("zone" :: Array.to_list names)
       ~rows:
         (List.init 8 (fun i ->
              names.(i) :: List.init 8 (fun j -> Table.fnum m.(i).(j)))))

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let fig2 ?(quick = false) () =
  let dur = duration ~quick in
  let ns = if quick then [ 7; 19; 43 ] else [ 7; 19; 31; 43; 55; 67 ] in
  let vs_n =
    par_cells
      (List.map
         (fun n ->
           ( float_of_int n,
             [
               (fun () ->
                 (run_pbft ~quick ~site:Cluster ~variant:Config.hl ~n ()).Harness.throughput);
               (fun () ->
                 run_baseline ~protocol:(lockstep Lockstep.Tendermint) ~n ~clients:10 ~rate:2200.0
                   ~duration:dur);
               (fun () -> run_baseline ~protocol:raft ~n ~clients:10 ~rate:2200.0 ~duration:dur);
               (fun () ->
                 run_baseline ~protocol:(lockstep Lockstep.Ibft) ~n ~clients:10 ~rate:2200.0
                   ~duration:dur);
             ] ))
         ns)
  in
  let clients_axis = if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let vs_clients =
    par_cells
      (List.map
         (fun clients ->
           let n = 7 in
           let rate = 2200.0 in
           ( float_of_int clients,
             [
               (fun () ->
                 (Harness.run ~duration:dur ~warmup ~variant:Config.hl ~n
                    ~topology:(Topology.lan ())
                    ~workload:(Harness.Closed_loop { clients; outstanding = 8; think = 0.0 })
                    ())
                   .Harness.throughput);
               (fun () ->
                 run_baseline ~protocol:(lockstep Lockstep.Tendermint) ~n ~clients ~rate
                   ~duration:dur);
               (fun () -> run_baseline ~protocol:raft ~n ~clients ~rate ~duration:dur);
               (fun () ->
                 run_baseline ~protocol:(lockstep Lockstep.Ibft) ~n ~clients ~rate ~duration:dur);
             ] ))
         clients_axis)
  in
  let columns = [ "HL(PBFT)"; "Tendermint"; "Quorum(Raft)"; "Quorum(IBFT)" ] in
  Results.figure ~id:"fig2" ~caption:"Comparison of BFT protocols"
    [
      Results.panel ~title:"Throughput vs N" ~x_label:"N" ~columns ~rows:vs_n;
      Results.panel ~title:"Throughput vs #clients (N=7)" ~x_label:"clients" ~columns
        ~rows:vs_clients;
    ]

(* ------------------------------------------------------------------ *)
(* Figures 8/9/10 and the derived 15/16/17                             *)
(* ------------------------------------------------------------------ *)

let variant_columns = [ "HL"; "AHL"; "AHL+"; "AHLR" ]

let sweep_variants ~quick ~site ~byzantine ns =
  par_cells
    (List.map
       (fun x ->
         let per_variant variant () =
           let n, byz =
             if byzantine then
               (* x is f: HL runs 3f+1, the attested variants 2f+1. *)
               (Config.n_for_f variant ~f:x, x)
             else (x, 0)
           in
           run_pbft ~quick ~byzantine:byz ~site ~variant ~n ()
         in
         (float_of_int x, List.map per_variant Config.all_variants))
       ns)

let fig8 ?(quick = false) () =
  let no_fail = sweep_variants ~quick ~site:Cluster ~byzantine:false (n_axis ~quick) in
  let with_fail = sweep_variants ~quick ~site:Cluster ~byzantine:true (f_axis ~quick) in
  let tps rs = List.map (fun (x, l) -> (x, List.map (fun r -> r.Harness.throughput) l)) rs in
  Results.figure ~id:"fig8" ~caption:"AHL+ performance on the local cluster"
    [
      Results.panel ~title:"Throughput w/o failures" ~x_label:"N" ~columns:variant_columns
        ~rows:(tps no_fail);
      Results.panel ~title:"Throughput w/ failures (conflicting-message attack)" ~x_label:"f"
        ~columns:variant_columns ~rows:(tps with_fail);
    ]

let fig9 ?(quick = false) () =
  let ns = if quick then [ 7; 43; 79 ] else n_axis ~quick in
  let tps rs = List.map (fun (x, l) -> (x, List.map (fun r -> r.Harness.throughput) l)) rs in
  Results.figure ~id:"fig9" ~caption:"AHL+ performance on GCP"
    [
      Results.panel ~title:"4 regions" ~x_label:"N" ~columns:variant_columns
        ~rows:(tps (sweep_variants ~quick ~site:Gcp4 ~byzantine:false ns));
      Results.panel ~title:"8 regions" ~x_label:"N" ~columns:variant_columns
        ~rows:(tps (sweep_variants ~quick ~site:Gcp8 ~byzantine:false ns));
    ]

let ablation_variants =
  [ Config.hl; Config.ahl; Config.ahl_opt1; Config.ahl_plus; Config.ahlr ]

let ablation_columns = [ "HL"; "AHL"; "AHL+op1"; "AHL+op1,2"; "AHL+op1,2,3" ]

let fig10 ?(quick = false) () =
  let rows_of ~byzantine xs =
    par_cells
      (List.map
         (fun x ->
           let per variant () =
             let n, byz = if byzantine then (Config.n_for_f variant ~f:x, x) else (x, 0) in
             (run_pbft ~quick ~byzantine:byz ~site:Cluster ~variant ~n ()).Harness.throughput
           in
           (float_of_int x, List.map per ablation_variants))
         xs)
  in
  Results.figure ~id:"fig10" ~caption:"Effect of each optimization on throughput"
    [
      Results.panel ~title:"Throughput w/o failures" ~x_label:"N" ~columns:ablation_columns
        ~rows:(rows_of ~byzantine:false [ 7; 19 ]);
      Results.panel ~title:"Throughput w/ failures" ~x_label:"f" ~columns:ablation_columns
        ~rows:(rows_of ~byzantine:true [ 5; 20 ]);
    ]

let fig15 ?(quick = false) () =
  let lat site ns =
    par_cells
      (List.map
         (fun n ->
           ( float_of_int n,
             List.map
               (fun variant () -> (run_pbft ~quick ~site ~variant ~n ()).Harness.latency_mean)
               Config.all_variants ))
         ns)
  in
  Results.figure ~id:"fig15" ~caption:"Consensus latency (s)"
    [
      Results.panel ~title:"Latency on cluster" ~x_label:"N" ~columns:variant_columns
        ~rows:(lat Cluster (n_axis ~quick));
      Results.panel ~title:"Latency on GCP (8 regions)" ~x_label:"N" ~columns:variant_columns
        ~rows:(lat Gcp8 (if quick then [ 7; 43; 79 ] else n_axis ~quick));
    ]

let fig16 ?(quick = false) () =
  (* The attack panel runs the leader-stall adversary (byzantine members
     that win the leader slot now actually attack it) rather than fig8's
     conflicting-message clique, which never campaigns and so never costs
     a view change. *)
  let vc ~byzantine ~leader_attack xs =
    par_cells
      (List.map
         (fun x ->
           ( float_of_int x,
             List.map
               (fun variant () ->
                 let n, byz = if byzantine then (Config.n_for_f variant ~f:x, x) else (x, 0) in
                 float_of_int
                   (run_pbft ~quick ~byzantine:byz ~leader_attack ~site:Cluster ~variant ~n ())
                     .Harness.view_changes)
               Config.all_variants ))
         xs)
  in
  Results.figure ~id:"fig16" ~caption:"Number of view changes"
    [
      Results.panel ~title:"#View-changes, normal case" ~x_label:"N" ~columns:variant_columns
        ~rows:(vc ~byzantine:false ~leader_attack:false (n_axis ~quick));
      Results.panel ~title:"#View-changes, under attack" ~x_label:"f" ~columns:variant_columns
        ~rows:(vc ~byzantine:true ~leader_attack:true (f_axis ~quick));
    ]

let fig17 ?(quick = false) () =
  let cost pick ns =
    par_cells
      (List.map
         (fun n ->
           ( float_of_int n,
             List.map
               (fun variant () -> pick (run_pbft ~quick ~site:Cluster ~variant ~n ()))
               Config.all_variants ))
         ns)
  in
  Results.figure ~id:"fig17" ~caption:"Per-block cost breakdown (observer CPU seconds)"
    [
      Results.panel ~title:"Consensus cost" ~x_label:"N" ~columns:variant_columns
        ~rows:(cost (fun r -> r.Harness.consensus_cost_per_block) (n_axis ~quick));
      Results.panel ~title:"Execution cost" ~x_label:"N" ~columns:variant_columns
        ~rows:(cost (fun r -> r.Harness.execution_cost_per_block) (n_axis ~quick));
    ]

(* ------------------------------------------------------------------ *)
(* Figure 11: shard formation                                          *)
(* ------------------------------------------------------------------ *)

let fig11 ?(quick = false) () =
  let total = 2000 in
  let sizes =
    List.filter_map
      (fun pct ->
        if pct = 0 then None
        else begin
          let fraction = float_of_int pct /. 100.0 in
          let ours =
            Sizing.min_committee_size ~total ~fraction ~rule:Sizing.Ahl_half ~security_bits:20
          in
          let omni =
            Sizing.min_committee_size ~total ~fraction ~rule:Sizing.Pbft_third ~security_bits:20
          in
          Some (float_of_int pct, [ float_of_int omni; float_of_int ours ])
        end)
      (if quick then [ 5; 15; 25; 30 ] else [ 2; 5; 10; 15; 20; 25; 30; 33 ])
  in
  let ns = if quick then [ 32; 128; 512 ] else [ 32; 64; 128; 256; 512 ] in
  let formation site =
    par_cells
      (List.map
         (fun n ->
           let topology = topology_of site in
           ( float_of_int n,
             [
               (fun () -> Randomness.randhound_runtime ~n ~group:16 ~topology);
               (fun () ->
                 let delta = Randomness.measured_delta ~topology ~n in
                 let l_bits = Randomness.paper_l_bits ~n in
                 (Randomness.run ~n ~topology ~delta ~l_bits ()).Randomness.elapsed);
             ] ))
         ns)
  in
  Results.figure ~id:"fig11" ~caption:"Evaluation of shard formation"
    [
      Results.panel ~title:"Committee size vs % Byzantine (N=2000, 2^-20)" ~x_label:"%byz"
        ~columns:[ "OmniLedger(PBFT)"; "Ours(AHL+)" ] ~rows:sizes;
      Results.panel ~title:"Committee formation time, cluster (s)" ~x_label:"N"
        ~columns:[ "RandHound"; "Ours" ] ~rows:(formation Cluster);
      Results.panel ~title:"Committee formation time, GCP (s)" ~x_label:"N"
        ~columns:[ "RandHound"; "Ours" ] ~rows:(formation Gcp8);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 12: reconfiguration                                          *)
(* ------------------------------------------------------------------ *)

let fig12 ?(quick = false) () =
  let sizes = if quick then [ 9 ] else [ 9; 17; 33 ] in
  let strategies n =
    [
      ("No Reshard", None);
      ("Swap all", Some `Swap_all);
      ("Swap Log[n]", Some (`Batched (Sizing.swap_batch_size ~n)));
    ]
  in
  (* One run per (size, strategy); the first size's runs also provide the
     throughput-over-time panel. *)
  let runs =
    let p = pool () in
    let submitted =
      List.map
        (fun n ->
          ( n,
            List.map
              (fun (name, reshard) ->
                ( name,
                  Pool.submit p (fun () ->
                      run_shards ~quick ~shards:2 ~committee_size:n ?reshard
                        ~dur:(if quick then 30.0 else 60.0)
                        ()) ))
              (strategies n) ))
        sizes
    in
    List.map
      (fun (n, rs) -> (n, List.map (fun (name, fut) -> (name, Pool.await fut)) rs))
      submitted
  in
  let avg =
    List.map (fun (n, rs) -> (float_of_int n, List.map (fun (_, r) -> r.tps) rs)) runs
  in
  let n0, first_runs = List.hd runs in
  let over_time = List.map (fun (name, r) -> (name, r.series)) first_runs in
  (* Align the three time series on common bins. *)
  let times =
    List.sort_uniq Float.compare (List.concat_map (fun (_, s) -> List.map fst s) over_time)
  in
  let series_rows =
    List.map
      (fun time ->
        ( time,
          List.map
            (fun (_, s) -> Option.value (List.assoc_opt time s) ~default:0.0)
            over_time ))
      times
  in
  Results.figure ~id:"fig12" ~caption:"Performance during shard reconfiguration"
    [
      Results.panel ~title:"Avg. throughput" ~x_label:"committee size n"
        ~columns:(List.map fst (strategies n0))
        ~rows:avg;
      Results.panel
        ~title:(Printf.sprintf "Throughput over time (n=%d)" n0)
        ~x_label:"time (s)"
        ~columns:(List.map fst (strategies n0))
        ~rows:series_rows;
    ]

(* ------------------------------------------------------------------ *)
(* Figures 13/14/18: sharding performance                              *)
(* ------------------------------------------------------------------ *)

let fig13 ?(quick = false) () =
  let ns = if quick then [ 12; 36 ] else [ 8; 12; 18; 24; 36 ] in
  let tps_rows =
    par_cells
      (List.map
         (fun total ->
           let run ~variant ~csize ~mode () =
             let shards = Stdlib.max 1 (total / csize) in
             (run_shards ~quick ~variant ~mode ~shards ~committee_size:csize ()).tps
           in
           ( float_of_int total,
             [
               run ~variant:Config.ahl_plus ~csize:3 ~mode:System.With_reference;
               run ~variant:Config.hl ~csize:4 ~mode:System.With_reference;
               run ~variant:Config.ahl_plus ~csize:3 ~mode:System.Client_driven;
               run ~variant:Config.hl ~csize:4 ~mode:System.Client_driven;
               run ~variant:Config.ahl_plus ~csize:3 ~mode:System.Flattened;
             ] ))
         ns)
  in
  let thetas = if quick then [ 0.0; 0.99; 1.99 ] else [ 0.0; 0.49; 0.99; 1.49; 1.99 ] in
  let abort_rows =
    par_cells
      (List.map
         (fun theta ->
           ( theta,
             List.map
               (fun total () ->
                 let shards = total / 3 in
                 (run_shards ~quick ~theta ~shards ~committee_size:3 ()).s_abort_rate)
               (if quick then [ 18; 36 ] else [ 8; 18; 36 ]) ))
         thetas)
  in
  Results.figure ~id:"fig13"
    ~caption:"Sharding on the local cluster, with and without the reference committee"
    [
      Results.panel ~title:"Throughput (SmallBank)" ~x_label:"N"
        ~columns:[ "AHL+;w R"; "HL;w R"; "AHL+;w/o R"; "HL;w/o R"; "AHL+;flat" ]
        ~rows:tps_rows;
      Results.panel ~title:"Abort rate vs Zipf" ~x_label:"zipf"
        ~columns:(List.map (fun n -> Printf.sprintf "N=%d" n) (if quick then [ 18; 36 ] else [ 8; 18; 36 ]))
        ~rows:abort_rows;
    ]

(* The fast-lane companion to Fig. 13 (DESIGN §18): the same
   high-contention cluster, under the Hot-increments mix, with the
   commutative lane off vs on.  Lane off, every credit-only increment is
   an ordinary cross-shard 2PC transaction whose lock acquisitions pile up
   on the Zipf head; lane on, the same transactions append deltas with no
   locks and only the conditional sendPayments contend.  The third panel
   sweeps the mix itself (CRDV's read-write-ratio analogue): how much
   commutativity the workload must declare before the lane pays off. *)
let fig13_fastlane ?(quick = false) () =
  let lanes = [ false; true ] in
  let hot = Workload.Hot_increments { increment_fraction = 0.9 } in
  let thetas = if quick then [ 0.0; 1.49; 1.99 ] else [ 0.0; 0.49; 0.99; 1.49; 1.99 ] in
  (* One run per (theta, lane); the abort and throughput panels read the
     same results. *)
  let cells =
    par_cells
      (List.map
         (fun theta ->
           ( theta,
             List.map
               (fun fast_lane () ->
                 run_shards ~quick ~theta ~workload:hot ~fast_lane ~shards:6 ~committee_size:3
                   ())
               lanes ))
         thetas)
  in
  let rows metric = List.map (fun (theta, rs) -> (theta, List.map metric rs)) cells in
  let fractions = if quick then [ 0.0; 0.5; 1.0 ] else [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let mix_rows =
    par_cells
      (List.map
         (fun increment_fraction ->
           ( increment_fraction,
             List.map
               (fun fast_lane () ->
                 (run_shards ~quick ~theta:1.49
                    ~workload:(Workload.Hot_increments { increment_fraction })
                    ~fast_lane ~shards:6 ~committee_size:3 ())
                   .tps)
               lanes ))
         fractions)
  in
  let lane_columns = [ "lane off"; "lane on" ] in
  Results.figure ~id:"fig13_fastlane"
    ~caption:
      "Commutative fast lane under contention (6 shards, Hot-increments mix): abort rate and \
       throughput vs Zipf with the lane off/on, and throughput vs the mergeable fraction at \
       zipf 1.49"
    [
      Results.panel ~title:"Abort rate vs Zipf" ~x_label:"zipf" ~columns:lane_columns
        ~rows:(rows (fun r -> r.s_abort_rate));
      Results.panel ~title:"Throughput vs Zipf" ~x_label:"zipf" ~columns:lane_columns
        ~rows:(rows (fun r -> r.tps));
      Results.panel ~title:"Throughput vs mergeable fraction (zipf 1.49)"
        ~x_label:"increment fraction" ~columns:lane_columns ~rows:mix_rows;
    ]

let fig14 ?(quick = false) () =
  let points = if quick then [ 162; 486; 972 ] else [ 162; 324; 486; 648; 810; 972 ] in
  let run_at ~csize total =
    let shards = Stdlib.max 1 (total / csize) in
    let r =
      (* The paper drives 432 clients with 128 outstanding requests each;
         the window below saturates the WAN pipeline the same way. *)
      run_shards ~quick ~site:Gcp8 ~mode:System.Client_driven ~shards ~committee_size:csize
        ~outstanding:64 ()
    in
    (r.tps, float_of_int shards)
  in
  let rows =
    List.map
      (fun (x, cells) -> (x, List.map fst cells, List.map snd cells))
      (par_cells
         (List.map
            (fun total ->
              ( float_of_int total,
                [ (fun () -> run_at ~csize:27 total); (fun () -> run_at ~csize:79 total) ] ))
            points))
  in
  Results.figure ~id:"fig14" ~caption:"Sharding performance on GCP (SmallBank, no reference committee)"
    [
      Results.panel ~title:"Throughput" ~x_label:"N" ~columns:[ "12.5%"; "25%" ]
        ~rows:(List.map (fun (x, t, _) -> (x, t)) rows);
      Results.panel ~title:"#Shards" ~x_label:"N" ~columns:[ "12.5%"; "25%" ]
        ~rows:(List.map (fun (x, _, k) -> (x, k)) rows);
    ]

let fig18 ?(quick = false) () =
  let ns = if quick then [ 12; 36 ] else [ 8; 12; 18; 24; 36 ] in
  let rows =
    par_cells
      (List.map
         (fun total ->
           let run ~variant ~csize ~workload () =
             let shards = Stdlib.max 1 (total / csize) in
             (run_shards ~quick ~variant ~workload ~shards ~committee_size:csize ()).tps
           in
           ( float_of_int total,
             [
               run ~variant:Config.ahl_plus ~csize:3 ~workload:Workload.Smallbank;
               run ~variant:Config.hl ~csize:4 ~workload:Workload.Smallbank;
               run ~variant:Config.ahl_plus ~csize:3
                 ~workload:(Workload.Kvstore { updates_per_tx = 3 });
               run ~variant:Config.hl ~csize:4 ~workload:(Workload.Kvstore { updates_per_tx = 3 });
             ] ))
         ns)
  in
  Results.figure ~id:"fig18" ~caption:"Sharding with KVStore vs SmallBank"
    [
      Results.panel ~title:"Sharding throughput" ~x_label:"N"
        ~columns:[ "SB-AHL+"; "SB-HL"; "KVS-AHL+"; "KVS-HL" ]
        ~rows;
    ]

(* ------------------------------------------------------------------ *)
(* Figures 19/20: client sweeps                                        *)
(* ------------------------------------------------------------------ *)

let fig19 ?(quick = false) () =
  let clients_axis = if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  (* Each BLOCKBENCH client contributes ~32 req/s; the configured rate
     caps the aggregate, so throughput climbs with the client count until
     either the cap or the protocol's capacity binds. *)
  let panel rate =
    par_cells
      (List.map
         (fun clients ->
           let offered = Float.min rate (32.0 *. float_of_int clients) in
           let per variant () =
             (Harness.run ~duration:(duration ~quick) ~warmup ~cpu_scale:3.5 ~tune:(tune_of Gcp8)
                ~variant ~n:19 ~topology:(Topology.gcp 8)
                ~workload:(Harness.Open_loop { rate = offered; clients })
                ())
               .Harness.throughput
           in
           (float_of_int clients, List.map per [ Config.hl; Config.ahl_plus; Config.ahlr ]))
         clients_axis)
  in
  Results.figure ~id:"fig19" ~caption:"Throughput vs workload on GCP (N=19)"
    [
      Results.panel ~title:"256 requests/second" ~x_label:"clients"
        ~columns:[ "HL"; "AHL+"; "AHLR" ] ~rows:(panel 256.0);
      Results.panel ~title:"1024 requests/second" ~x_label:"clients"
        ~columns:[ "HL"; "AHL+"; "AHLR" ] ~rows:(panel 1024.0);
    ]

let fig20 ?(quick = false) () =
  let clients_axis = if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  (* SmallBank transactions execute chaincode logic (reads + balance
     updates); KVStore writes are cheap — the only knob that differs. *)
  let smallbank_costs =
    { Cost_model.default with Cost_model.tx_execute = 3.0 *. Cost_model.default.Cost_model.tx_execute }
  in
  let panel costs =
    par_cells
      (List.map
         (fun clients ->
           let per variant () =
             (Harness.run ~duration:(duration ~quick) ~warmup ~costs ~variant ~n:19
                ~topology:(Topology.lan ())
                ~workload:(Harness.Closed_loop { clients; outstanding = 8; think = 0.0 })
                ())
               .Harness.throughput
           in
           (float_of_int clients, List.map per Config.all_variants))
         clients_axis)
  in
  Results.figure ~id:"fig20" ~caption:"Throughput vs workload on the local cluster (N=19)"
    [
      Results.panel ~title:"Smallbank" ~x_label:"clients" ~columns:variant_columns
        ~rows:(panel smallbank_costs);
      Results.panel ~title:"KVStore" ~x_label:"clients" ~columns:variant_columns
        ~rows:(panel Cost_model.default);
    ]

(* ------------------------------------------------------------------ *)
(* Figures 21/22: PoET                                                 *)
(* ------------------------------------------------------------------ *)

let poet_sites = [ ("cluster", Topology.constrained_lan ~latency_ms:100.0 ~bandwidth_mbps:50.0) ]

let poet_cache : (int * float * int * bool, Poet.result) Memo.t = Memo.create ~size:32 ()

let poet_rows ~quick pick topology =
  let ns = if quick then [ 8; 128 ] else [ 2; 8; 32; 128 ] in
  let sizes = if quick then [ 2.0; 8.0 ] else [ 2.0; 4.0; 8.0 ] in
  let dur = if quick then 1200.0 else 1800.0 in
  let rows =
    par_cells
      (List.map
         (fun n ->
           let per block_mb l_bits () =
             Memo.get poet_cache (n, block_mb, l_bits, quick) (fun () ->
                 Poet.run ~n ~topology ~block_mb ~block_time:18.0 ~l_bits ~tx_bytes:500
                   ~duration:dur ())
           in
           ( float_of_int n,
             List.concat_map (fun mb -> [ per mb 0; per mb (Poet.plus_l_bits ~n) ]) sizes ))
         ns)
  in
  List.map (fun (x, cells) -> (x, List.map pick cells)) rows

let poet_columns ~quick =
  let sizes = if quick then [ 2; 8 ] else [ 2; 4; 8 ] in
  List.concat_map (fun mb -> [ Printf.sprintf "PoET %dMB" mb; Printf.sprintf "PoET+ %dMB" mb ]) sizes

let fig21 ?(quick = false) () =
  Results.figure ~id:"fig21" ~caption:"PoET and PoET+ throughput (tps)"
    (List.map
       (fun (name, topo) ->
         Results.panel ~title:("Throughput on " ^ name) ~x_label:"N"
           ~columns:(poet_columns ~quick)
           ~rows:(poet_rows ~quick (fun r -> r.Poet.throughput) topo))
       poet_sites)

let fig22 ?(quick = false) () =
  Results.figure ~id:"fig22" ~caption:"PoET and PoET+ stale-block rate"
    (List.map
       (fun (name, topo) ->
         Results.panel ~title:("Stale rate on " ^ name) ~x_label:"N"
           ~columns:(poet_columns ~quick)
           ~rows:(poet_rows ~quick (fun r -> r.Poet.stale_rate) topo))
       poet_sites)

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
  let a2m = Repro_sgx.A2m.create enclave ~watermark_window:128 in
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
  Results.figure ~id:"appendix_a" ~caption:"Rollback-attack defense (1 = behaves as specified)"
    [
      Results.panel ~title:"Recovery protocol checks" ~x_label:"check#"
        ~columns:[ "result" ]
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
  let rows =
    let p = pool () in
    let submitted =
      List.map
        (fun (args, touches, analytic) ->
          (args, touches, analytic, Pool.submit p (fun () -> mc ~args ~touches)))
        cases
    in
    List.map
      (fun (args, touches, analytic, fut) ->
        ( float_of_int ((args * 10) + touches),
          [ float_of_int args; float_of_int touches; analytic; Pool.await fut ] ))
      submitted
  in
  Results.figure ~id:"appendix_b"
    ~caption:"Probability a d-argument transaction touches x of 10 shards (Eq. 3 vs Monte Carlo)"
    [
      Results.panel ~title:"Cross-shard probability" ~x_label:"(d,x)"
        ~columns:[ "d"; "x"; "analytic"; "monte-carlo" ] ~rows;
    ]

(* ------------------------------------------------------------------ *)
(* Ablation beyond the paper: Section 6.4's concurrency-control hint    *)
(* ------------------------------------------------------------------ *)

let ablation_cc ?(quick = false) () =
  let thetas = if quick then [ 0.0; 0.99; 1.99 ] else [ 0.0; 0.49; 0.99; 1.49; 1.99 ] in
  (* One run per (theta, concurrency); both panels read the same results
     (the sequential version re-ran every simulation per panel). *)
  let cells =
    par_cells
      (List.map
         (fun theta ->
           ( theta,
             List.map
               (fun concurrency () ->
                 run_shards ~quick ~theta ~concurrency ~shards:6 ~committee_size:3 ())
               [ System.Two_phase_locking; System.Wait_die ] ))
         thetas)
  in
  let rows metric = List.map (fun (theta, rs) -> (theta, List.map metric rs)) cells in
  Results.figure ~id:"ablation_cc"
    ~caption:
      "Extension (Section 6.4): 2PL vs wait-die lock waiting under contention (6 shards, SmallBank)"
    [
      Results.panel ~title:"Abort rate vs Zipf" ~x_label:"zipf" ~columns:[ "2PL"; "Wait-die" ]
        ~rows:(rows (fun r -> r.s_abort_rate));
      Results.panel ~title:"Throughput vs Zipf" ~x_label:"zipf" ~columns:[ "2PL"; "Wait-die" ]
        ~rows:(rows (fun r -> r.tps));
    ]

(* ------------------------------------------------------------------ *)
(* Index                                                               *)
(* ------------------------------------------------------------------ *)

let reset_caches () =
  Memo.clear pbft_cache;
  Memo.clear poet_cache

let all_ids =
  [
    "table1"; "table2"; "table3"; "fig2"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13";
    "fig13_fastlane"; "fig14"; "fig15"; "fig16"; "fig17"; "fig18"; "fig19"; "fig20"; "fig21";
    "fig22"; "appendix_a"; "appendix_b"; "ablation_cc";
  ]

let by_id id =
  let const f ?quick:_ () = f () in
  match id with
  | "table1" -> Some (const table1)
  | "table2" -> Some (const table2)
  | "table3" -> Some (const table3)
  | "fig2" -> Some fig2
  | "fig8" -> Some fig8
  | "fig9" -> Some fig9
  | "fig10" -> Some fig10
  | "fig11" -> Some fig11
  | "fig12" -> Some fig12
  | "fig13" -> Some fig13
  | "fig13_fastlane" -> Some fig13_fastlane
  | "fig14" -> Some fig14
  | "fig15" -> Some fig15
  | "fig16" -> Some fig16
  | "fig17" -> Some fig17
  | "fig18" -> Some fig18
  | "fig19" -> Some fig19
  | "fig20" -> Some fig20
  | "fig21" -> Some fig21
  | "fig22" -> Some fig22
  | "appendix_a" -> Some (const appendix_a)
  | "ablation_cc" -> Some ablation_cc
  | "appendix_b" -> Some (const appendix_b)
  | _ -> None

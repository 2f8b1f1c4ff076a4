(* The repository benchmark: how fast the simulator produces the paper's
   numbers, and what those numbers are.

   Two clocks.  Simulated time gives the figures' tps and latency; wall
   time is what the discrete-event simulator spends producing them.  Each
   workload is one seeded deployment driven through [System] directly:
   the benchmark owns the load generator ([Workload.next_tx] +
   [System.submit] on [System.engine]), stops issuing at the horizon,
   drains, and audits the final state.  Everything here reads the library
   from outside — public counters, [Gc] statistics, the [Repro_obs] probes
   via [System.set_probe], and timings of the benchmark's own calls.

   Usage (perfbench/run.py builds this and is the normal entry point):
     main.exe --workload NAME|all --seed N --seconds S --trace 0|1

   [--trace 0] runs a fixed number of untraced episodes and prints the
   end-to-end metrics; [--trace 1] alternates a fixed number of untraced
   and traced episodes and prints the per-layer metrics.  The counts are
   sized for S = [nominal_seconds] on the reference host and scale with
   S in whole multiples, never with the host's speed.  [--workload all]
   runs both passes of every workload, each in a child process of its
   own, one at a time.  The last
   stdout line of a single-workload run is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exit 1 on an audit
   violation or on same-seed drift, 2 on a usage error. *)

open Repro_util
open Repro_core
module Engine = Repro_sim.Engine
module Probe = Repro_obs.Probe
module Obs = Repro_obs.Metrics
module Config = Repro_consensus.Config

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type load =
  | Open_loop of { rate : float; clients : int }
      (** Poisson arrivals at [rate] req/s in total; latency counts from
          each request's due time *)
  | Closed_loop of { clients : int; outstanding : int }
      (** each client keeps [outstanding] transactions in flight *)

type workload = {
  name : string;
  shards : int;
  committee_size : int;
  variant : Config.variant;
  mode : System.coordination_mode;
  fast_lane : bool;
  kind : Workload.kind;
  theta : float;
  load : load;
  warmup : float;
      (** simulated seconds before steady state: tps counts commits from
          here, latency counts transactions issued from here *)
  sub_seeds : int;
      (** seeds pooled per run: the simulated figures of one seed spread by
          up to ~15% (closed-loop tps) from seed to seed; pooling several
          keeps the run-to-run spread within a few percent *)
  trace_pairs : int;  (** untraced + traced episode pairs per traced run *)
}

(* Why these three (details in README.md): consensus_n79 puts nearly all
   work in the simulator core and PBFT (O(N^2) traffic, no 2PC);
   cross_shard_ref36 in System/Coordination/Reference/Locks (the Fig. 13
   "AHL+; w R" N=36 point, R-bound); hotkey_lane exercises the same
   layers through the Merge fast lane instead of 2PC (fig13_fastlane at
   zipf 1.49).  A change to one mechanism shows on one and not another. *)
let workloads =
  [
    {
      name = "consensus_n79";
      shards = 1;
      committee_size = 79;
      variant = Config.hl;
      mode = System.Client_driven;
      fast_lane = false;
      kind = Workload.Smallbank;
      theta = 0.2;
      (* ~75% of the ~800 tps at which this deployment saturates here
         (full 200-request blocks; measured by a rate sweep, see
         README.md).  Latency settles within ~4 s of issue time, so steady
         state is counted from 7 s. *)
      load = Open_loop { rate = 600.0; clients = 10 };
      warmup = 7.0;
      sub_seeds = 4;
      trace_pairs = 2;
    };
    {
      name = "cross_shard_ref36";
      shards = 12;
      committee_size = 3;
      variant = Config.ahl_plus;
      mode = System.With_reference;
      fast_lane = false;
      kind = Workload.Smallbank;
      theta = 0.2;
      load = Closed_loop { clients = 48; outstanding = 32 };
      warmup = 4.0;
      sub_seeds = 6;
      trace_pairs = 3;
    };
    {
      name = "hotkey_lane";
      shards = 6;
      committee_size = 3;
      variant = Config.ahl_plus;
      mode = System.With_reference;
      fast_lane = true;
      kind = Workload.Hot_increments { increment_fraction = 0.9 };
      theta = 1.49;
      load = Closed_loop { clients = 24; outstanding = 32 };
      warmup = 4.0;
      sub_seeds = 6;
      trace_pairs = 3;
    };
  ]

(* Simulated seconds: issue until [horizon], count steady state from the
   workload's warmup, then let in-flight work finish for [drain] seconds. *)
let horizon = 15
let drain = 5

(* The [--seconds] the episode counts are sized for: about one run's
   length on the reference host.  [--seconds] in whole multiples of it
   multiplies the counts. *)
let nominal_seconds = 30.0

(* Same sizing as the figure runs: more shards serve more users. *)
let keyspace w = Stdlib.max 20_000 (8_000 * w.shards)
let initial_balance = 5_000

(* ------------------------------------------------------------------ *)
(* One episode: set up, simulate, drain, audit                          *)
(* ------------------------------------------------------------------ *)

type episode = {
  seed : int64;
  fingerprint : string;  (** every simulated output; must repeat per seed *)
  events : int;
  attempted : int;
  committed : int;
  aborted : int;
  tps : float;
  latency : Stats.t;  (** committed, issued in [warmup, horizon) *)
  pending_max : int;
  pending_end : int;
  violations : string list;
  calib_s : float;  (** total {!calibration_slice} time in this episode *)
  setup_system_s : float;
  setup_workload_s : float;
  wall_s : float;  (** simulating only, calibration slices excluded *)
  alloc_words : float;
  gc_major : int;
  ref_busy : float;
  probes : Obs.t option;  (** traced episodes only *)
  submit_us : float;  (** mean wall µs per call, traced episodes only *)
  next_tx_us : float;
}

let clock = Unix.gettimeofday

(* Host-speed probe.  This host's speed switches between a fast mode and
   one 30-40% slower, often several times within one episode, so raw wall
   times of whole runs spread by 20-30% however long they are.  A fixed
   job owned by the benchmark (string-keyed hash table inserts and
   lookups, the same kind of allocating work as set-up and simulation)
   runs in a short slice after every quarter of a simulated second,
   so it samples the host while the episode runs.  It slows down with the
   host and never with the library; wall and set-up times are divided by
   the episode's total slice time.  Changing this function changes every
   normalised number: it is part of the benchmark's definition.

   The slice runs under fixed GC parameters (the OCaml 5 defaults), so a
   GC setting changed by the library or by OCAMLRUNPARAM moves the
   simulator's wall time and not the calibration that divides it. *)
let calibration_gc =
  {
    (Gc.get ()) with
    Gc.minor_heap_size = 262_144;
    space_overhead = 120;
    custom_major_ratio = 44;
    custom_minor_ratio = 100;
    custom_minor_max_size = 70_000;
  }

let calibration_slice () =
  let saved = Gc.get () in
  Gc.set calibration_gc;
  (* Start from an empty minor heap, which then holds everything the
     slice allocates but the table's bucket arrays, so the table is not
     promoted into the simulator's major heap. *)
  Gc.minor ();
  let t0 = clock () in
  let keys = 5_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to keys - 1 do
    Hashtbl.replace h ("cal" ^ string_of_int i ^ "_checking") (string_of_int (i * 7))
  done;
  let x = ref 1 in
  for _ = 1 to 2 * keys do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = "cal" ^ string_of_int (!x mod keys) ^ "_checking" in
    match Hashtbl.find_opt h k with Some v -> Hashtbl.replace h k (v ^ "1") | None -> ()
  done;
  let t = clock () -. t0 in
  Gc.set saved;
  t

(* An episode's total slice time in the fast mode of the host the
   baseline was measured on; normalised times read as seconds on that
   host. *)
let reference_calib_s = 0.36

let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The post-run audits: a run that breaks atomicity or leaks protocol
   state never reports a throughput. *)
let audit sys ~undecided =
  let found = ref [] in
  let report fmt = Printf.ksprintf (fun s -> found := s :: !found) fmt in
  if undecided > 0 then report "%d attempted transactions undecided after the drain" undecided;
  let locks = System.stuck_locks sys in
  if locks > 0 then report "%d stuck locks" locks;
  let live = System.registry_size sys in
  if live > 0 then report "%d live coordination-registry entries" live;
  (match System.merge_audit sys with
  | [] -> ()
  | ms -> report "%d merge-convergence mismatches" (List.length ms));
  let first_seen = Hashtbl.create 4096 and split = Hashtbl.create 16 in
  List.iter
    (fun (d : System.decision_event) ->
      match Hashtbl.find_opt first_seen d.txid with
      | Some commit when commit <> d.commit -> Hashtbl.replace split d.txid ()
      | Some _ -> ()
      | None -> Hashtbl.replace first_seen d.txid d.commit)
    (System.decision_trace sys);
  if Hashtbl.length split > 0 then
    report "%d transactions committed on one shard and aborted on another" (Hashtbl.length split);
  let roots = Hashtbl.create 256 and forks = ref 0 in
  List.iter
    (fun (committee, _member, seq, root) ->
      match Hashtbl.find_opt roots (committee, seq) with
      | Some r when r <> root -> incr forks
      | Some _ -> ()
      | None -> Hashtbl.replace roots (committee, seq) root)
    (System.committee_checkpoints sys);
  if !forks > 0 then report "%d checkpoint certificates bind one (committee, seq) to two roots" !forks;
  List.rev !found

let episode w ~seed ~traced =
  Gc.compact ();
  let t0 = clock () in
  let cfg =
    {
      (System.default_config ~shards:w.shards ~committee_size:w.committee_size) with
      System.variant = w.variant;
      mode = w.mode;
      fast_lane = w.fast_lane;
      seed;
    }
  in
  let sys = System.create cfg in
  let t1 = clock () in
  let wl = Workload.create w.kind ~keyspace:(keyspace w) ~theta:w.theta ~rng:(Rng.create seed) in
  Workload.setup wl sys ~initial_balance;
  let t2 = clock () in
  let probes = if traced then Some (Obs.create ()) else None in
  Option.iter
    (fun metrics -> System.set_probe sys (Probe.make ~trace:(Repro_obs.Trace.create ()) ~metrics))
    probes;
  let engine = System.engine sys in
  let rng = Rng.split_named (Rng.create seed) "perfbench.load" in
  let horizon_s = float_of_int horizon and warmup = w.warmup in
  let attempted = ref 0 and committed = ref 0 and aborted = ref 0 and steady = ref 0 in
  let latency = Stats.create () in
  (* Per-call wall timings of the benchmark's own calls into the library,
     taken in traced episodes only so untraced wall time stays clean. *)
  let submit_time = ref 0.0 and next_tx_time = ref 0.0 in
  let timed acc f =
    if traced then begin
      let s = clock () in
      let r = f () in
      acc := !acc +. (clock () -. s);
      r
    end
    else f ()
  in
  let issue ~client ~k =
    let due = Engine.now engine in
    let tx = timed next_tx_time (fun () -> Workload.next_tx wl sys ~client) in
    incr attempted;
    timed submit_time (fun () ->
        System.submit sys tx ~on_done:(fun outcome ->
            let at = Engine.now engine in
            (match outcome with
            | System.Committed ->
                incr committed;
                if at >= warmup && at <= horizon_s then incr steady;
                if due >= warmup then Stats.add latency (at -. due)
            | System.Aborted -> incr aborted);
            k ()))
  in
  (match w.load with
  | Closed_loop { clients; outstanding } ->
      let rec next client () = if Engine.now engine < horizon_s then issue ~client ~k:(next client) in
      for client = 0 to clients - 1 do
        for _ = 1 to outstanding do
          Engine.schedule engine ~delay:(Rng.float rng 1.0) (next client)
        done
      done
  | Open_loop { rate; clients } ->
      let mean = float_of_int clients /. rate in
      let rec arrival client () =
        if Engine.now engine < horizon_s then begin
          issue ~client ~k:ignore;
          Engine.schedule engine ~delay:(Rng.exponential rng ~mean) (arrival client)
        end
      in
      for client = 0 to clients - 1 do
        Engine.schedule engine ~delay:(Rng.exponential rng ~mean) (arrival client)
      done);
  let gc0 = Gc.quick_stat () in
  (* A quarter of a simulated second at a time, so the host's speed can
     be sampled after every chunk and the queue depth read every whole
     second without scheduling any event of our own.  The calibration
     slices' time, allocation and major collections are kept out of the
     simulator's. *)
  let pending_max = ref 0 and wall = ref 0.0 and calib = ref 0.0 in
  let calib_alloc = ref 0.0 and calib_major = ref 0 in
  for quarter = 1 to 4 * (horizon + drain) do
    let c0 = clock () in
    System.run sys ~until:(float_of_int quarter /. 4.0);
    wall := !wall +. (clock () -. c0);
    if quarter mod 4 = 0 then pending_max := Stdlib.max !pending_max (Engine.pending engine);
    let before = Gc.quick_stat () in
    calib := !calib +. calibration_slice ();
    let after = Gc.quick_stat () in
    calib_alloc := !calib_alloc +. (allocated after -. allocated before);
    calib_major := !calib_major + (after.Gc.major_collections - before.Gc.major_collections)
  done;
  let gc1 = Gc.quick_stat () in
  let events = Engine.events_processed engine in
  let pending_end = Engine.pending engine in
  let undecided = !attempted - !committed - !aborted in
  let violations = audit sys ~undecided in
  let tps = float_of_int !steady /. (horizon_s -. warmup) in
  Printf.eprintf
    "  episode %s seed=%Ld traced=%b: calib %.3f s, setup %.3f s, wall %.3f s, %d events, %.1f tps\n%!"
    w.name seed traced !calib (t2 -. t0) !wall events tps;
  let per_call total = if !attempted = 0 then 0.0 else 1e6 *. total /. float_of_int !attempted in
  {
    seed;
    fingerprint =
      Printf.sprintf
        "events=%d attempted=%d committed=%d aborted=%d tps=%h p50=%h p99=%h samples=%d \
         pending_max=%d pending_end=%d"
        events !attempted !committed !aborted tps (Stats.percentile latency 50.0)
        (Stats.percentile latency 99.0) (Stats.count latency) !pending_max pending_end;
    events;
    attempted = !attempted;
    committed = !committed;
    aborted = !aborted;
    tps;
    latency;
    pending_max = !pending_max;
    pending_end;
    violations;
    calib_s = !calib;
    setup_system_s = t1 -. t0;
    setup_workload_s = t2 -. t1;
    wall_s = !wall;
    alloc_words = allocated gc1 -. allocated gc0 -. !calib_alloc;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections - !calib_major;
    ref_busy = System.reference_busy_fraction sys;
    probes;
    submit_us = per_call !submit_time;
    next_tx_us = per_call !next_tx_time;
  }

(* ------------------------------------------------------------------ *)
(* Layer kernels (Bechamel), shaped by the traced run                   *)
(* ------------------------------------------------------------------ *)

(* Wall ns per operation, estimated the way the micro suite in
   bench/main.ml does it (OLS over the monotonic clock). *)
let ns_per_op name fn =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let results = Benchmark.all cfg [ instance ] (Test.make ~name (Staged.stage fn)) in
  let analyzed =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |]) instance results
  in
  Hashtbl.fold
    (fun _ ols acc -> match Analyze.OLS.estimates ols with Some [ est ] -> est | _ -> acc)
    analyzed 0.0

let noop () = ()

(* A hold-model event queue at the traced depth: each op pushes one event
   a little into the future and pops the earliest, as the engine does. *)
let heap_kernel ~depth =
  let rng = Rng.create 11L in
  let gaps = Array.init 4096 (fun _ -> Rng.exponential rng ~mean:0.01) in
  let h = Heap.create () in
  let now = ref 0.0 and i = ref 0 in
  for _ = 1 to depth do
    Heap.push h (!now +. gaps.(!i land 4095)) noop;
    incr i
  done;
  fun () ->
    Heap.push h (!now +. gaps.(!i land 4095)) noop;
    incr i;
    match Heap.pop h with Some (t, _) -> now := t | None -> ()

let engine_kernel () =
  let e = Engine.create ~seed:1L in
  fun () ->
    Engine.schedule e ~delay:0.0 noop;
    Engine.run_until_idle ~max_events:1 e

(* One LAN message from send to the receiving node's handler. *)
let network_kernel () =
  let module Net = Repro_sim.Network in
  let module Node = Repro_sim.Node in
  let module Inbox = Repro_sim.Inbox in
  let e = Engine.create ~seed:1L in
  let net : unit Net.t = Net.create e ~topology:(Repro_sim.Topology.lan ()) in
  let node id = Node.create e ~id ~inbox_mode:(Inbox.Shared 5000) ~handler:(fun _ () -> ()) in
  let src = node 0 in
  Net.register net src;
  Net.register net (node 1);
  fun () ->
    Net.send net ~src ~dst:1 ~channel:Inbox.Consensus ~bytes:256 ();
    Engine.run_until_idle e

(* One R slot of [steps] coordinator steps: Begin plus both votes of
   two-shard transactions, on a fresh machine as each slot is new work. *)
let reference_kernel ~steps =
  let module R = Repro_shard.Reference in
  let batch =
    List.init steps (fun i ->
        let txid = i / 3 in
        match i mod 3 with
        | 0 -> (txid, R.Begin { participants = [ 0; 1 ] })
        | j -> (txid, R.Prepare_ok { shard = j - 1 }))
  in
  fun () -> ignore (R.step_batch (R.create ()) batch)

(* One block-boundary fold of [depth] counter deltas over hot keys. *)
let merge_kernel ~depth =
  let module M = Repro_ledger.Merge in
  let state = Repro_ledger.State.create () in
  let deltas =
    List.init depth (fun i ->
        (i, Repro_ledger.Kvstore_cc.counter_key ("acc" ^ string_of_int (i mod 64)), M.Add 1))
  in
  fun () ->
    let lane = M.lane () in
    List.iter (fun (txid, key, d) -> M.append lane state ~txid ~key d) deltas;
    ignore (M.fold_into lane state)

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Mean without the lowest and the highest sample: robust to one stray
   episode, and steadier than the median when samples fall in two modes. *)
let trimmed_mean xs =
  match List.sort Float.compare xs with
  | _ :: (_ :: _ :: _ as rest) ->
      let inner = List.filteri (fun i _ -> i < List.length rest - 1) rest in
      List.fold_left ( +. ) 0.0 inner /. float_of_int (List.length inner)
  | short -> median short

(* A wall time in seconds on the reference host: each episode's time over
   its own calibration, trimmed mean over the run's episodes. *)
let normalised f eps =
  reference_calib_s *. trimmed_mean (List.map (fun e -> f e /. e.calib_s) eps)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  problems : string list;
}

(* Same-seed determinism: every episode of one seed, traced or not, must
   reproduce that seed's first episode's simulated outputs exactly. *)
let drift (eps : episode list) =
  let first = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
      match Hashtbl.find_opt first e.seed with
      | None ->
          Hashtbl.replace first e.seed e.fingerprint;
          None
      | Some f when f = e.fingerprint -> None
      | Some f -> Some (Printf.sprintf "same-seed drift at seed %Ld: [%s] vs [%s]" e.seed f e.fingerprint))
    eps

let result_of (eps : episode list) ~metrics =
  let problems = drift eps @ List.concat_map (fun e -> e.violations) eps in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 eps in
  {
    correct = problems = [];
    attempted = sum (fun e -> e.attempted);
    failed = sum (fun e -> e.attempted - e.committed - e.aborted);
    metrics = (if problems = [] then metrics else []);
    problems;
  }

(* How many times a run repeats its fixed episode schedule: [--seconds]
   in whole multiples of [nominal_seconds], at least once.  The count
   never depends on how fast the host is, so every run averages the same
   episodes. *)
let repeats seconds = Stdlib.max 1 (int_of_float (seconds /. nominal_seconds))

(* The [i]th of the seeds a run pools, derived from the run's seed. *)
let sub_seed seed i = Int64.add (Int64.mul seed 1000L) (Int64.of_int i)

let untraced_pass w ~seed ~seconds =
  (* Cycle the pooled seeds [repeats] times; with one cycle the first seed
     runs once more, so the drift gate always has a repeat to compare. *)
  let cycles = repeats seconds in
  let count = (cycles * w.sub_seeds) + if cycles = 1 then 1 else 0 in
  let eps =
    List.init count (fun i -> episode w ~seed:(sub_seed seed (i mod w.sub_seeds)) ~traced:false)
  in
  let firsts = List.filteri (fun i _ -> i < w.sub_seeds) eps in
  let sum f = List.fold_left (fun acc e -> acc +. f e) 0.0 firsts in
  let mean f = sum f /. float_of_int w.sub_seeds in
  let latency = Stats.create () in
  List.iter (fun e -> Stats.merge ~into:latency e.latency) firsts;
  let metrics =
    [
      ("wall_s", "s", normalised (fun e -> e.wall_s) eps);
      ("setup_s", "s", normalised (fun e -> e.setup_system_s +. e.setup_workload_s) eps);
      ( "peak_heap_mb",
        "MiB",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
      ("tps", "tx/s", mean (fun e -> e.tps));
      ("latency_p50_s", "s", Stats.percentile latency 50.0);
      ("latency_p99_s", "s", Stats.percentile latency 99.0);
      ( "commit_frac",
        "ratio",
        sum (fun e -> float_of_int e.committed) /. sum (fun e -> float_of_int e.attempted) );
    ]
  in
  result_of eps ~metrics

(* What the kernels need from the traced run: op counts and the depths
   the workload reaches. *)
type kernel_plan = {
  plain_wall : float;
  events : float;
  pending_max : int;
  deliveries : float;
  slots : float;
  slot_steps : float;
  folds : float;
  fold_depth : float;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The traced run's layer metrics.  Episodes stay local to this function
   so their retained samples are garbage before the kernels run. *)
let layer_metrics w ~seed ~seconds =
  (* Untraced and traced episodes of one seed alternate, so each pair
     shares the host's speed; only the first traced episode keeps its
     probes. *)
  let pairs =
    List.init (repeats seconds * w.trace_pairs) (fun i ->
        let plain = episode w ~seed:(sub_seed seed 0) ~traced:false in
        let traced = episode w ~seed:(sub_seed seed 0) ~traced:true in
        (plain, if i = 0 then traced else { traced with probes = None }))
  in
  let eps = List.concat_map (fun (p, t) -> [ p; t ]) pairs in
  let plain = List.map fst pairs in
  let first, tr = List.hd pairs in
  let m = Option.get tr.probes in
  let wall = median (List.map (fun e -> e.wall_s) plain) in
  let per_calib e = e.wall_s /. e.calib_s in
  let counter name = float_of_int (Obs.counter m name) in
  let hist name f = match Obs.histogram_stats m name with Some s -> f s | None -> 0.0 in
  let pct name p = hist name (fun s -> Stats.percentile s p) in
  let mean name = hist name Stats.mean in
  let count name = hist name (fun s -> float_of_int (Stats.count s)) in
  let events = float_of_int first.events in
  let metrics =
    [
      ("sim.events", "count", events);
      ("sim.events_per_s", "1/s", ratio events wall);
      ("sim.alloc_words_per_event", "words", ratio first.alloc_words events);
      ("sim.gc_major", "count", float_of_int first.gc_major);
      ("sim.pending_max", "count", float_of_int first.pending_max);
      ("sim.pending_end", "count", float_of_int first.pending_end);
      ("net.delivery_s.p50", "s", pct "net.delivery_s" 50.0);
      ("net.delivery_s.p99", "s", pct "net.delivery_s" 99.0);
      ("net.delivered_per_commit", "ratio", ratio (count "net.delivery_s") (float_of_int first.committed));
      ("net.dropped.inbox", "count", counter "net.dropped.inbox");
      ("pbft.blocks", "count", counter "pbft.blocks");
      ("pbft.txs_per_block", "ratio", ratio (counter "pbft.txs_executed") (counter "pbft.blocks"));
      ("pbft.block_interval_s.p50", "s", pct "pbft.block_interval_s" 50.0);
      ("pbft.vc.adopted", "count", counter "pbft.vc.adopted");
      ("ckpt.certs", "count", counter "ckpt.certs");
      ("2pc.tx_total_s.p50", "s", pct "2pc.tx_total_s" 50.0);
      ("2pc.tx_total_s.p99", "s", pct "2pc.tx_total_s" 99.0);
      ("2pc.vote_leg_s.p50", "s", pct "2pc.vote_leg_s" 50.0);
      ("2pc.decision_leg_s.p50", "s", pct "2pc.decision_leg_s" 50.0);
      ("2pc.batch.size.mean", "steps", mean "2pc.batch.size");
      ("2pc.slot_steps.mean", "steps", mean "2pc.slot_steps");
      ("2pc.batch.pipeline_depth.mean", "batches", mean "2pc.batch.pipeline_depth");
      ("2pc.ref_busy_fraction", "ratio", first.ref_busy);
      ("2pc.fallback_sweeps", "count", counter "2pc.fallback_sweeps");
      ("2pc.vote_nok.lock_conflict", "count", counter "2pc.vote_nok.lock_conflict");
      ("core.submit_us", "us", tr.submit_us);
      ("workload.next_tx_us", "us", tr.next_tx_us);
      ("setup.system_s", "s", median (List.map (fun e -> e.setup_system_s) plain));
      ("setup.workload_s", "s", median (List.map (fun e -> e.setup_workload_s) plain));
      ("merge.lane_hits", "count", counter "merge.lane_hits");
      ("merge.deltas", "count", counter "merge.deltas");
      ("merge.folds", "count", counter "merge.folds");
      ("merge.fold.depth.mean", "deltas", mean "merge.fold.depth");
      ("merge.downgrades", "count", counter "merge.downgrades");
      ( "failed_frac",
        "ratio",
        ratio (float_of_int (first.attempted - first.committed)) (float_of_int first.attempted) );
      ("latency.samples", "count", float_of_int (Stats.count first.latency));
      ( "obs.trace_overhead",
        "ratio",
        median (List.map (fun (p, t) -> ratio (per_calib t) (per_calib p)) pairs) );
      ("host.calib_s", "s", median (List.map (fun e -> e.calib_s) eps));
      ("host.wall_raw_s", "s", wall);
    ]
  in
  ( result_of eps ~metrics,
    {
      plain_wall = wall;
      events;
      pending_max = first.pending_max;
      deliveries = count "net.delivery_s";
      slots = count "2pc.slot_steps";
      slot_steps = mean "2pc.slot_steps";
      folds = counter "merge.folds";
      fold_depth = mean "merge.fold.depth";
    } )

(* Kernels at the depths this workload reaches; ops x ns/op over the
   untraced wall_s models that layer's share of the wall time.  A kernel
   whose layer this workload never enters reports 0. *)
let kernel_metrics p =
  let kernel name ~ops make =
    let ns = if ops = 0.0 then 0.0 else ns_per_op name (make ()) in
    [
      ("kernel." ^ name ^ ".ns_per_op", "ns", ns);
      ("kernel." ^ name ^ ".ops", "count", ops);
      ("kernel." ^ name ^ ".wall_share", "ratio", ratio (ops *. ns *. 1e-9) p.plain_wall);
    ]
  in
  let round x = Stdlib.max 1 (int_of_float (Float.round x)) in
  kernel "heap" ~ops:p.events (fun () -> heap_kernel ~depth:p.pending_max)
  @ kernel "engine" ~ops:p.events engine_kernel
  @ kernel "network" ~ops:p.deliveries network_kernel
  @ kernel "reference" ~ops:p.slots (fun () -> reference_kernel ~steps:(round p.slot_steps))
  @ kernel "merge" ~ops:p.folds (fun () -> merge_kernel ~depth:(round p.fold_depth))

let traced_pass w ~seed ~seconds =
  let r, plan = layer_metrics w ~seed ~seconds in
  if not r.correct then r
  else begin
    Gc.compact ();
    { r with metrics = r.metrics @ kernel_metrics plan }
  end

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_of r =
  let metrics =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

let print_human ~label r =
  Printf.printf "== %s\n" label;
  List.iter (fun p -> Printf.printf "  audit_violations: %s\n" p) r.problems;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-34s %16.6g %s\n" name v unit) r.metrics;
  Printf.printf "%!"

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME|all --seed N --seconds S --trace 0|1\n\
     workloads: consensus_n79 cross_shard_ref36 hotkey_lane";
  exit 2

let () =
  let rec parse acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let arg name conv =
    match Option.bind (List.assoc_opt name args) conv with Some v -> v | None -> usage ()
  in
  let name = arg "workload" Option.some in
  let seed = arg "seed" Int64.of_string_opt in
  let seconds = arg "seconds" float_of_string_opt in
  let trace =
    name <> "all" && arg "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  let pass w ~trace = if trace then traced_pass w ~seed ~seconds else untraced_pass w ~seed ~seconds in
  match name with
  | "all" ->
      (* Each pass runs in a child process of its own, one after another,
         so its heap figures are its own: the OCaml 5.1 runtime keeps the
         major heap it has grown, so a later pass in the same process
         would read an earlier one's top heap. *)
      let in_child w ~trace =
        flush_all ();
        match Unix.fork () with
        | 0 ->
            let r = pass w ~trace in
            print_human ~label:(Printf.sprintf "%s trace=%d" w.name (Bool.to_int trace)) r;
            print_endline (json_of r);
            exit (if r.correct then 0 else 1)
        | child -> snd (Unix.waitpid [] child) = Unix.WEXITED 0
      in
      let ok =
        List.for_all (fun w -> List.for_all (fun trace -> in_child w ~trace) [ false; true ]) workloads
      in
      exit (if ok then 0 else 1)
  | name -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | None -> usage ()
      | Some w ->
          let r = pass w ~trace in
          print_human ~label:(Printf.sprintf "%s seed=%Ld trace=%b" name seed trace) r;
          print_endline (json_of r);
          exit (if r.correct then 0 else 1))

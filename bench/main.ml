(* Bechamel micro-benchmarks of the real cryptographic, trusted-log and
   simulator operations behind Table 2 and the hot paths, followed by the
   2% disabled-probe overhead gate.

   Usage:
     dune exec bench/main.exe

   The paper's tables and figures are rendered and recorded by
   `ahl_cli experiment` (`--out DIR` writes BENCH_<id>.json and
   METRICS_<id>.json). *)

open Repro_util
open Repro_crypto
open Repro_core
module Probe = Repro_obs.Probe

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per operation)              *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let payload = String.init 256 (fun i -> Char.chr (i mod 256)) in
  let keystore = Keys.create_keystore (Rng.create 1L) in
  let secret = Keys.gen keystore ~id:0 in
  let enclave_ks = Keys.create_keystore (Rng.create 2L) in
  let enclave =
    Repro_sgx.Enclave.create ~keystore:enclave_ks ~id:0 ~measurement:"bench"
      ~rng:(Rng.create 3L) ~costs:Cost_model.free
      ~charge:(fun _ -> ())
      ~now:(fun () -> 0.0)
  in
  let a2m = Repro_sgx.A2m.create enclave ~watermark_window:1_000_000 in
  let slot = ref 0 in
  let leaves = List.init 100 (fun i -> "tx-" ^ string_of_int i) in
  let zipf = Zipf.create ~n:100_000 ~theta:0.99 in
  let zrng = Rng.create 9L in
  let live_probe =
    Probe.make ~trace:(Repro_obs.Trace.create ()) ~metrics:(Repro_obs.Metrics.create ())
  in
  (* 16 two-shard transactions, 4 coordinator steps each (Begin, both
     votes, one duplicate vote) — the slot payload a full batch carries. *)
  let ref_steps =
    List.concat_map
      (fun txid ->
        [
          (txid, Repro_shard.Reference.Begin { participants = [ 0; 1 ] });
          (txid, Repro_shard.Reference.Prepare_ok { shard = 0 });
          (txid, Repro_shard.Reference.Prepare_ok { shard = 1 });
          (txid, Repro_shard.Reference.Prepare_ok { shard = 1 });
        ])
      (List.init 16 Fun.id)
  in
  (* The per-transaction path: one two-shard transaction's coordination
     steps through the registry, the workload generator per kind, and a
     participant's prepare+commit of a sendPayment. *)
  let registry = Coordination.create_registry () in
  let xshard_steps =
    let ops = Repro_ledger.Smallbank_cc.send_payment_ops ~src:"acc1" ~dst:"acc2" ~amount:3 in
    let leg shard = List.filteri (fun i _ -> i = shard) ops in
    [ Coordination.Begin_tx { txid = 7; participants = [ 0; 1 ] } ]
    @ List.concat_map
        (fun shard ->
          [
            Coordination.Prepare_tx { txid = 7; ops = leg shard };
            Coordination.Vote { txid = 7; shard; ok = true };
            Coordination.Commit_tx { txid = 7; ops = leg shard };
          ])
        [ 0; 1 ]
  in
  let next_tx kind =
    let sys = System.create (System.default_config ~shards:6 ~committee_size:3) in
    (* A keyspace small enough that every account's shard is cached
       within the first few thousand calls: the kernel times the steady
       state. *)
    let wl = Workload.create kind ~keyspace:1_000 ~theta:0.99 ~rng:(Rng.create 5L) in
    Workload.setup wl sys ~initial_balance:1_000;
    Staged.stage (fun () -> Workload.next_tx wl sys ~client:0)
  in
  (* SmallBank genesis on 6 shards x 1,000 accounts: each run gets a
     fresh system, so nothing pending from an earlier run is forced. *)
  let setup =
    Test.make_with_resource ~name:"workload/setup" Test.multiple
      ~allocate:(fun () ->
        ( System.create (System.default_config ~shards:6 ~committee_size:3),
          Workload.create Workload.Smallbank ~keyspace:1_000 ~theta:0.99 ~rng:(Rng.create 5L) ))
      ~free:ignore
      (Staged.stage (fun (sys, wl) -> Workload.setup wl sys ~initial_balance:1_000))
  in
  (* Key->shard routing over 1,024 checking keys (8-11 bytes each). *)
  let route_keys =
    Array.init 1_024 (fun i -> Repro_ledger.Smallbank_cc.checking_key ("acc" ^ string_of_int i))
  in
  let route_cursor = ref 0 in
  (* The event queue in the hold model: the engine holds 9,000 pending
     events (about [consensus_n79]'s traced queue depth), and each op fires
     the earliest, which schedules one fresh closure ([hold_event (k + 1)]
     is a new partial application each time). *)
  let hold = Repro_sim.Engine.create ~seed:1L in
  let hold_rng = Rng.create 11L in
  let rec hold_event k () =
    Repro_sim.Engine.schedule hold ~delay:(Rng.exponential hold_rng ~mean:1.0) (hold_event (k + 1))
  in
  for k = 1 to 9_000 do
    hold_event k ()
  done;
  (* A shared inbox kept 100 deep, so the ring wraps: each op is one
     arrival and one dequeue. *)
  let inbox = Repro_sim.Inbox.create (Repro_sim.Inbox.Shared 5000) in
  for k = 1 to 100 do
    ignore (Repro_sim.Inbox.push inbox Repro_sim.Inbox.Consensus k)
  done;
  let ledger = Repro_ledger.State.create () in
  Repro_ledger.Executor.set_balance ledger "chk_acc1" 1_000;
  Repro_ledger.Executor.set_balance ledger "chk_acc2" 1_000;
  let forward = ref true in
  (* About one shard of [cross_shard_ref36] (96,000 accounts over 12
     shards): 8,192 accounts with a checking and a savings balance.  Each op is the state side of a one-key leg on a
     different account: lock it, read and rewrite its balance, release. *)
  let accounts = Array.init 8_192 (fun i -> "chk_acc" ^ string_of_int i) in
  let shard_state = Repro_ledger.State.create () in
  Array.iteri
    (fun i key ->
      Repro_ledger.Executor.set_balance shard_state key 1_000;
      Repro_ledger.Executor.set_balance shard_state ("sav_acc" ^ string_of_int i) 1_000)
    accounts;
  let shard_locks = Repro_ledger.Locks.create shard_state in
  let cursor = ref 0 in
  [
    Test.make ~name:"sha256/256B" (Staged.stage (fun () -> Sha256.digest_string payload));
    Test.make ~name:"hmac-sha256/256B"
      (Staged.stage (fun () -> Sha256.hmac ~key:"secret-key" payload));
    Test.make ~name:"sign-hmac" (Staged.stage (fun () -> Keys.sign_hmac secret payload));
    Test.make ~name:"sim-signature" (Staged.stage (fun () -> Keys.sign secret ~msg_tag:42));
    Test.make ~name:"merkle-root/100" (Staged.stage (fun () -> Merkle.root leaves));
    Test.make ~name:"a2m-append"
      (Staged.stage (fun () ->
           incr slot;
           Repro_sgx.A2m.append a2m ~log:0 ~slot:!slot ~digest_tag:7));
    Test.make ~name:"hypergeom-tail"
      (Staged.stage (fun () ->
           Logspace.hypergeom_tail ~total:2000 ~bad:500 ~draws:80 ~at_least:40));
    Test.make ~name:"committee-size-solve"
      (Staged.stage (fun () ->
           Repro_shard.Sizing.min_committee_size ~total:2000 ~fraction:0.25
             ~rule:Repro_shard.Sizing.Ahl_half ~security_bits:20));
    Test.make ~name:"zipf-sample" (Staged.stage (fun () -> Zipf.sample zipf zrng));
    Test.make ~name:"engine/hold-9k"
      (Staged.stage (fun () -> Repro_sim.Engine.run_until_idle ~max_events:1 hold));
    Test.make ~name:"inbox/shared-push-take"
      (Staged.stage (fun () ->
           ignore (Repro_sim.Inbox.push inbox Repro_sim.Inbox.Consensus 0);
           Repro_sim.Inbox.take inbox));
    (* The batched-commit pair: one slot applying 64 coordinator steps in
       a single pass vs the same steps as 64 separate slot executions.
       Both recreate the state machine per iteration so the comparison is
       creation + application on each side. *)
    Test.make ~name:"ref-step/seq64"
      (Staged.stage (fun () ->
           let t = Repro_shard.Reference.create () in
           List.iter
             (fun (txid, ev) -> ignore (Repro_shard.Reference.step t ~txid ev))
             ref_steps));
    Test.make ~name:"ref-step-batch/64"
      (Staged.stage (fun () ->
           let t = Repro_shard.Reference.create () in
           ignore (Repro_shard.Reference.step_batch t ref_steps)));
    (* The two probe entries bound the cost of the permanent instrumentation:
       disabled emitters must be branch-cheap, enabled ones a hashtable op. *)
    Test.make ~name:"probe-off/incr" (Staged.stage (fun () -> Probe.incr Probe.none "bench.ctr"));
    Test.make ~name:"probe-on/incr" (Staged.stage (fun () -> Probe.incr live_probe "bench.ctr"));
    Test.make ~name:"probe-on/observe"
      (Staged.stage (fun () -> Probe.observe live_probe "bench.lat" 0.125));
    Test.make ~name:"registry/xshard-tx"
      (Staged.stage (fun () ->
           List.iter (fun op -> ignore (Coordination.register registry op)) xshard_steps;
           Coordination.release registry ~txid:7));
    Test.make ~name:"tx/shard-of-key"
      (Staged.stage (fun () ->
           route_cursor := (!route_cursor + 1) land 1_023;
           Repro_ledger.Tx.shard_of_key ~shards:12 route_keys.(!route_cursor)));
    setup;
    Test.make ~name:"next-tx/kvstore" (next_tx (Workload.Kvstore { updates_per_tx = 3 }));
    Test.make ~name:"next-tx/smallbank" (next_tx Workload.Smallbank);
    Test.make ~name:"next-tx/hot-increments"
      (next_tx (Workload.Hot_increments { increment_fraction = 0.9 }));
    (* Alternate the payment's direction so balances never run out. *)
    Test.make ~name:"executor/prepare+commit"
      (Staged.stage (fun () ->
           forward := not !forward;
           let src, dst = if !forward then ("acc1", "acc2") else ("acc2", "acc1") in
           let ops = Repro_ledger.Smallbank_cc.send_payment_ops ~src ~dst ~amount:1 in
           match Repro_ledger.Executor.try_prepare ledger ~txid:1 ops with
           | Ok () -> Repro_ledger.Executor.commit ledger ~txid:1 ops
           | Error _ -> failwith "executor/prepare+commit: prepare refused"));
    Test.make ~name:"state/lock-cycle"
      (Staged.stage (fun () ->
           (* A stride coprime to 8,192 visits every account in turn. *)
           cursor := (!cursor + 4_099) land 8_191;
           let key = accounts.(!cursor) in
           if not (Repro_ledger.Locks.acquire shard_locks ~txid:1 key) then
             failwith "state/lock-cycle: lock refused";
           Repro_ledger.Executor.set_balance shard_state key
             (Repro_ledger.Executor.balance shard_state key + 1);
           Repro_ledger.Locks.release shard_locks ~txid:1 key));
  ]

(* The probes live permanently in the consensus/2PC hot paths, so the
   disabled path must stay within 2% of PBFT happy-path throughput.  The
   uninstrumented baseline no longer exists in-tree; instead, measure the
   per-call cost of a disabled emitter, count the probe calls an identical
   enabled run actually fires, and bound the product against the disabled
   run's wall time.  One run takes a few milliseconds, too short to time against
   timer noise, so the disabled run repeats until half a second has passed
   and the bound divides by the mean. *)
let assert_probe_overhead () =
  let module Harness = Repro_consensus.Harness in
  let happy_path probe =
    let t0 = Unix.gettimeofday () in
    let (_ : Harness.result) =
      Harness.run ~probe ~duration:4.0 ~warmup:1.0 ~variant:Repro_consensus.Config.ahl_plus
        ~n:4
        ~topology:(Repro_sim.Topology.lan ())
        ~workload:(Harness.Open_loop { rate = 400.0; clients = 8 })
        ()
    in
    Unix.gettimeofday () -. t0
  in
  let rec time_off runs total =
    if total >= 0.5 then (runs, total) else time_off (runs + 1) (total +. happy_path Probe.none)
  in
  let runs, wall_total = time_off 0 0.0 in
  let wall_off = wall_total /. float_of_int runs in
  let trace = Repro_obs.Trace.create () and metrics = Repro_obs.Metrics.create () in
  let (_ : float) = happy_path (Probe.make ~trace ~metrics) in
  let module Metrics = Repro_obs.Metrics in
  (* Counter values overcount Metrics.add calls, which only makes the
     bound stricter. *)
  let calls =
    Repro_obs.Trace.length trace
    + List.fold_left (fun acc (_, v) -> acc + v) 0 (Metrics.counters metrics)
    + List.length (Metrics.gauges metrics)
    + List.fold_left
        (fun acc name ->
          match Metrics.histogram_stats metrics name with
          | Some s -> acc + Stats.count s
          | None -> acc)
        0 (Metrics.histogram_names metrics)
  in
  let iters = 20_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    Probe.incr Probe.none "bench.ctr"
  done;
  let per_call = (Unix.gettimeofday () -. t0) /. float_of_int iters in
  let overhead = per_call *. float_of_int calls in
  let pct = 100.0 *. overhead /. wall_off in
  Printf.printf
    "probe-disabled overhead: %d probe calls x %.1f ns = %.3f ms, %.4f%% of the %.2f ms PBFT \
     happy path (mean of %d runs, %.2f s wall; bound: 2%%)\n\n\
     %!"
    calls (1e9 *. per_call) (1e3 *. overhead) pct (1e3 *. wall_off) runs wall_total;
  if pct > 2.0 then begin
    prerr_endline "bench: disabled-probe overhead exceeds the 2% acceptance bound";
    exit 1
  end

let run_micro () =
  let open Bechamel in
  print_endline "==== micro: Bechamel benchmarks of real operations ====";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  (* Collect and sort by test name: Hashtbl iteration order is
     hash-dependent, and bench output should be diffable run to run. *)
  let lines =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analyzed =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
            Toolkit.Instance.monotonic_clock results
        in
        Hashtbl.fold
          (fun key ols acc ->
            let rendered =
              match Analyze.OLS.estimates ols with
              | Some [ est ] -> Printf.sprintf "%-28s %12.1f ns/op" key est
              | Some _ | None -> Printf.sprintf "%-28s (no estimate)" key
            in
            (key, rendered) :: acc)
          analyzed [])
      (micro_tests ())
  in
  List.iter
    (fun (_, l) -> print_endline l)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) lines);
  print_newline ();
  assert_probe_overhead ()

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: bench/main.exe (figures: ahl_cli experiment [--out DIR] ID...)";
    exit 2
  end;
  run_micro ()

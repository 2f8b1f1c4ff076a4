(* Tests for lib/check: schedule witnesses round-trip bit-exactly, the
   oracles flag exactly the traces they should, the shrinker is greedy and
   budget-bounded, and the headline differential holds — HL's unattested
   quorums at N = 2f+1 violate agreement under the scripted split-brain
   attack while AHL/AHL+/AHLR survive the identical schedules. *)

open Repro_util
open Repro_consensus
open Repro_check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  nn = 0 || go 0

let sched ?(byz = [ 0 ]) ?(split_brain = true) ?(stale = false) ?(silent = []) ?leader
    ?(requests = 8) ?(events = []) () =
  {
    Schedule.adversary =
      {
        Pbft.byzantine = byz;
        split_brain;
        stale_view_replay = stale;
        silent_toward = silent;
        leader_attack = leader;
      };
    requests;
    events;
  }

let ev ?(start = 1.0) ?(stop = 2.0) kind = { Schedule.start; stop; kind }

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_roundtrip () =
  let s =
    sched ~byz:[ 0; 1 ] ~stale:true ~silent:[ 4 ] ~requests:12
      ~events:
        [
          ev ~start:0.25 ~stop:1.75 (Schedule.Drop 0.125);
          ev ~start:(1.0 /. 3.0) ~stop:3.0 (Schedule.Jitter 0.2);
          ev ~start:0.5 ~stop:2.5 (Schedule.Duplicate 0.3);
          ev ~start:2.0 ~stop:4.0 (Schedule.Partition [ 0; 2 ]);
          ev ~start:0.0 ~stop:5.0 (Schedule.Silence { from_ = 1; toward = 3 });
        ]
      ()
  in
  let s' = Schedule.of_string (Schedule.to_string s) in
  Alcotest.(check string) "string form round-trips" (Schedule.to_string s) (Schedule.to_string s');
  Alcotest.(check (list int)) "byz preserved" s.Schedule.adversary.Pbft.byzantine
    s'.Schedule.adversary.Pbft.byzantine;
  Alcotest.(check int) "requests preserved" s.Schedule.requests s'.Schedule.requests;
  Alcotest.(check int) "events preserved" 5 (List.length s'.Schedule.events)

let test_schedule_leader_token () =
  (* Each leader strategy round-trips through the optional lead= token. *)
  List.iter
    (fun leader ->
      let s = sched ~leader () in
      let s' = Schedule.of_string (Schedule.to_string s) in
      Alcotest.(check string) "leader witness round-trips" (Schedule.to_string s)
        (Schedule.to_string s');
      Alcotest.(check bool) "leader preserved" true
        (s'.Schedule.adversary.Pbft.leader_attack = Some leader))
    [ Pbft.Leader_stall; Pbft.Leader_serve_only [ 0; 2 ]; Pbft.Leader_drip 1.9 ];
  (* Witnesses predating the leader palette parse verbatim: no token
     means no leader attack. *)
  let old = "v1 byz=0 sb=1 stale=0 quiet=- req=4" in
  let s = Schedule.of_string old in
  Alcotest.(check bool) "pre-palette witness has no leader" true
    (s.Schedule.adversary.Pbft.leader_attack = None);
  Alcotest.(check string) "and still prints without the token" old (Schedule.to_string s)

let test_schedule_rejects_malformed () =
  let malformed w =
    match Schedule.of_string w with
    | exception Witness.Invalid_witness _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "wrong version" true (malformed "v2 byz=0 sb=1 stale=0 quiet=- req=4");
  Alcotest.(check bool) "garbage" true (malformed "garbage");
  Alcotest.(check bool) "bad event" true (malformed "v1 byz=0 sb=1 stale=0 quiet=- req=4 zap:1:2");
  Alcotest.(check bool) "negative request count" true
    (malformed "v1 byz=0 sb=1 stale=0 quiet=- req=-2");
  Alcotest.(check bool) "non-numeric drop probability" true
    (malformed "v1 byz=0 sb=1 stale=0 quiet=- req=4 drop:x:1:2")

let test_schedule_generation_deterministic () =
  let gen () = Schedule.generate (Rng.split_named (Rng.create 42L) "0") ~n:5 ~f:2 in
  Alcotest.(check string) "same rng, same schedule" (Schedule.to_string (gen ()))
    (Schedule.to_string (gen ()));
  let s = gen () in
  Alcotest.(check (list int)) "byz clique is 0..f-1" [ 0; 1 ] s.Schedule.adversary.Pbft.byzantine;
  Alcotest.(check bool) "split-brain scripted when f >= 1" true
    s.Schedule.adversary.Pbft.split_brain;
  Alcotest.(check bool) "even request count" true (s.Schedule.requests mod 2 = 0)

let test_schedule_heal_active_size () =
  let e = ev ~start:1.0 ~stop:2.0 (Schedule.Drop 0.5) in
  Alcotest.(check bool) "active inside window" true (Schedule.active e ~at:1.5);
  Alcotest.(check bool) "inactive at stop" false (Schedule.active e ~at:2.0);
  Alcotest.(check bool) "inactive before" false (Schedule.active e ~at:0.5);
  let s = sched ~events:[ e; ev ~start:0.0 ~stop:7.5 (Schedule.Jitter 0.1) ] () in
  Alcotest.(check (float 0.0)) "heal time is last stop" 7.5 (Schedule.heal_time s);
  Alcotest.(check (float 0.0)) "no events heal at 0" 0.0 (Schedule.heal_time (sched ()));
  let big = sched ~byz:[ 0; 1 ] ~stale:true ~silent:[ 2 ] ~requests:8 ~events:[ e ] () in
  Alcotest.(check bool) "size shrinks with structure" true
    (Schedule.size big > Schedule.size (sched ~requests:2 ()))

(* ------------------------------------------------------------------ *)
(* Oracles (synthetic traces)                                          *)
(* ------------------------------------------------------------------ *)

let commit ?(member = 1) ?(view = 0) ?(digest = 7) ?(ids = []) ?(at = 1.0) seq =
  { Trace.member; view; seq; digest; ids; at }

let outcome ?(commits = []) ?(submitted = []) ?(honest = [ 1; 2 ]) ?(observer = 1) () =
  {
    Testbed.commits;
    submitted;
    honest;
    observer;
    heal_time = 0.0;
    horizon = 30.0;
    view_changes = 0;
  }

let test_oracle_agreement () =
  let o =
    outcome
      ~commits:[ commit ~member:1 ~digest:7 1; commit ~member:2 ~digest:9 1 ]
      ~submitted:[] ()
  in
  (match Oracle.check o with
  | [ Oracle.Agreement { seq = 1; digest_a = 7; digest_b = 9; _ } ] -> ()
  | vs -> Alcotest.failf "expected one agreement violation, got [%s]"
            (String.concat "; " (List.map Oracle.to_string vs)));
  (* A byzantine replica's conflicting commit is not a violation. *)
  let o =
    outcome
      ~commits:[ commit ~member:1 ~digest:7 1; commit ~member:0 ~digest:9 1 ]
      ~honest:[ 1; 2 ] ()
  in
  Alcotest.(check int) "byzantine commits ignored" 0 (List.length (Oracle.check o))

let test_oracle_order_gap () =
  let o = outcome ~commits:[ commit 1; commit 3 ] () in
  match Oracle.check o with
  | [ Oracle.Order { member = 1; missing_seq = 2; max_seq = 3 } ] -> ()
  | vs ->
      Alcotest.failf "expected one order violation, got [%s]"
        (String.concat "; " (List.map Oracle.to_string vs))

let test_oracle_validity () =
  let o = outcome ~commits:[ commit ~ids:[ 5 ] 1 ] ~submitted:[ 0; 1 ] () in
  match Oracle.check o with
  | [ Oracle.Validity { member = 1; seq = 1; req_id = 5 } ] -> ()
  | vs ->
      Alcotest.failf "expected one validity violation, got [%s]"
        (String.concat "; " (List.map Oracle.to_string vs))

let test_oracle_liveness_only_when_safe () =
  (* Submitted id 1 never executes at the observer: liveness violation. *)
  let o = outcome ~commits:[ commit ~ids:[ 0 ] 1 ] ~submitted:[ 0; 1 ] () in
  (match Oracle.check o with
  | [ Oracle.Liveness { missing = 1; first_missing = 1 } ] -> ()
  | vs ->
      Alcotest.failf "expected one liveness violation, got [%s]"
        (String.concat "; " (List.map Oracle.to_string vs)));
  (* The same gap is NOT reported when the run is already unsafe. *)
  let unsafe =
    outcome
      ~commits:[ commit ~member:1 ~digest:7 ~ids:[ 0 ] 1; commit ~member:2 ~digest:9 1 ]
      ~submitted:[ 0; 1 ] ()
  in
  let vs = Oracle.check unsafe in
  Alcotest.(check bool) "safety reported" true (List.for_all Oracle.is_safety vs);
  Alcotest.(check bool) "liveness suppressed" true
    (not (List.exists (fun v -> not (Oracle.is_safety v)) vs))

let test_oracle_clean_run () =
  let o =
    outcome
      ~commits:[ commit ~ids:[ 0 ] 1; commit ~member:2 ~ids:[ 0 ] 1; commit ~ids:[ 1 ] 2 ]
      ~submitted:[ 0; 1 ] ~observer:1 ()
  in
  Alcotest.(check int) "no violations" 0 (List.length (Oracle.check o))

let test_oracle_kinds () =
  let ag = Oracle.Agreement { seq = 1; member_a = 1; view_a = 0; digest_a = 7; member_b = 2; view_b = 0; digest_b = 9 } in
  let lv = Oracle.Liveness { missing = 1; first_missing = 0 } in
  Alcotest.(check bool) "agreement is safety" true (Oracle.is_safety ag);
  Alcotest.(check bool) "liveness is not" false (Oracle.is_safety lv);
  Alcotest.(check bool) "same kind" true (Oracle.same_kind ag ag);
  Alcotest.(check bool) "different kind" false (Oracle.same_kind ag lv)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrink_candidates () =
  let s =
    sched ~byz:[ 0; 1 ] ~stale:true ~silent:[ 2 ] ~requests:8
      ~events:[ ev (Schedule.Drop 0.5); ev (Schedule.Jitter 0.1) ]
      ()
  in
  (* 2 event drops + stale off + silence off + byz clique shrink + half
     the requests = 6 one-step candidates. *)
  Alcotest.(check int) "one-step candidates" 6 (List.length (Schedule.candidates s));
  (* The clique never shrinks to empty: the attack needs one byzantine. *)
  let single = sched ~byz:[ 0 ] ~requests:2 () in
  Alcotest.(check int) "minimal schedule has no candidates" 0
    (List.length (Schedule.candidates single))

let test_shrink_minimize_greedy_and_bounded () =
  let base =
    sched ~byz:[ 0 ] ~stale:true ~silent:[ 3 ] ~requests:16
      ~events:[ ev (Schedule.Drop 0.5); ev (Schedule.Jitter 0.1) ]
      ()
  in
  let v = Oracle.Validity { member = 1; seq = 1; req_id = 99 } in
  (* Bug reproduces on every candidate: the shrinker must reach the
     structural floor. *)
  let shrunk, reruns = Explore.shrink ~replay:(fun _ -> Some v) ~budget:64 base v in
  Alcotest.(check int) "all events dropped" 0 (List.length shrunk.Schedule.events);
  Alcotest.(check bool) "stale replay disabled" false
    shrunk.Schedule.adversary.Pbft.stale_view_replay;
  Alcotest.(check (list int)) "silence dropped" [] shrunk.Schedule.adversary.Pbft.silent_toward;
  Alcotest.(check int) "requests at floor" 2 shrunk.Schedule.requests;
  Alcotest.(check bool) "within budget" true (reruns <= 64);
  (* A replay that never reproduces keeps the original schedule. *)
  let kept, _ = Explore.shrink ~replay:(fun _ -> None) ~budget:8 base v in
  Alcotest.(check string) "irreproducible keeps original" (Schedule.to_string base)
    (Schedule.to_string kept);
  (* Budget 0 spends no replays at all. *)
  let _, spent = Explore.shrink ~replay:(fun _ -> Some v) ~budget:0 base v in
  Alcotest.(check int) "budget 0 replays nothing" 0 spent

(* ------------------------------------------------------------------ *)
(* Testbed determinism                                                 *)
(* ------------------------------------------------------------------ *)

let pp_commits o = List.map (Format.asprintf "%a" Trace.pp_commit) o.Testbed.commits

let test_testbed_deterministic () =
  let s = Explore.schedule_for ~seed:11L ~n:3 ~f:1 0 in
  let run () = Testbed.run ~engine_seed:11L ~variant:Explore.hl_small ~n:3 s in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "bit-identical committed traces" (pp_commits a) (pp_commits b);
  Alcotest.(check int) "same view changes" a.Testbed.view_changes b.Testbed.view_changes

let test_testbed_horizon_uses_grace () =
  let s = sched ~requests:2 ~events:[ ev ~start:0.0 ~stop:1.5 (Schedule.Drop 0.0) ] () in
  let o = Testbed.run ~engine_seed:3L ~variant:Config.ahl ~n:3 s in
  Alcotest.(check (float 1e-9)) "heal time from schedule" 1.5 o.Testbed.heal_time;
  Alcotest.(check (float 1e-9)) "horizon grants the grace window"
    (o.Testbed.heal_time +. Testbed.grace) o.Testbed.horizon;
  Alcotest.(check (list int)) "honest excludes the byzantine clique" [ 1; 2 ] o.Testbed.honest

(* ------------------------------------------------------------------ *)
(* Explorer and the headline differential                              *)
(* ------------------------------------------------------------------ *)

let test_variant_names () =
  let name v = match v with Some v -> v.Config.name | None -> "?" in
  Alcotest.(check string) "hl2f1" "HL@2f+1" (name (Explore.variant_of_name "hl2f1"));
  Alcotest.(check string) "hl_small is the same config" Explore.hl_small.Config.name
    (name (Explore.variant_of_name "hl@2f+1"));
  Alcotest.(check string) "ahl+" "AHL+" (name (Explore.variant_of_name "ahl+"));
  Alcotest.(check string) "ahlr" "AHLR" (name (Explore.variant_of_name "ahlr"));
  Alcotest.(check bool) "unknown rejected" true
    (Option.is_none (Explore.variant_of_name "bogus"))

let test_trial_seeding () =
  Alcotest.(check int64) "engine seed is base + index" 14L (Explore.engine_seed_for ~seed:11L 3);
  let a = Explore.schedule_for ~seed:7L ~n:3 ~f:1 2 in
  let b = Explore.schedule_for ~seed:7L ~n:3 ~f:1 2 in
  Alcotest.(check string) "schedule_for is deterministic" (Schedule.to_string a)
    (Schedule.to_string b)

let test_differential_holds_and_witness_replays () =
  let d = Explore.differential ~f:1 ~trials:3 ~seed:11L ~budget:16 in
  Alcotest.(check bool) "differential holds" true d.Explore.holds;
  Alcotest.(check bool) "unattested 2f+1 violates safety" true
    (d.Explore.broken.Explore.safety_violations > 0);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Explore.params.Explore.variant.Config.name ^ " stays safe on identical schedules")
        0 r.Explore.safety_violations)
    d.Explore.safe;
  (* The shrunk witness replays bit-identically from (seed, string) alone. *)
  let t =
    List.find (fun t -> Option.is_some t.Explore.shrunk) d.Explore.broken.Explore.trials
  in
  let w = Option.get t.Explore.shrunk in
  let n = d.Explore.broken.Explore.params.Explore.n in
  let replay s =
    List.map Oracle.to_string
      (Explore.replay ~variant:Explore.hl_small ~n ~engine_seed:t.Explore.engine_seed s)
  in
  let direct = replay w in
  Alcotest.(check (list string)) "witness replays from its printed form" direct
    (replay (Schedule.of_string (Schedule.to_string w)));
  Alcotest.(check bool) "shrunk witness still violates" true (direct <> [])

let test_leader_stall_differential_holds () =
  (* Same parameters as the @check rule in ./dune. *)
  let d = Explore.leader_stall_differential ~f:1 ~trials:3 ~seed:7L ~budget:16 in
  Alcotest.(check bool) "leader-stall differential holds" true d.Explore.holds;
  List.iteri
    (fun i t ->
      Alcotest.(check string) "trials run the scripted leader schedule"
        (Schedule.to_string
           (Explore.leader_schedule ~n:d.Explore.broken.Explore.params.Explore.n ~f:1 i))
        (Schedule.to_string t.Explore.schedule))
    d.Explore.broken.Explore.trials;
  Alcotest.(check int) "a stalling leader never breaks safety" 0
    d.Explore.broken.Explore.safety_violations;
  let stall t =
    match t.Explore.schedule.Schedule.adversary.Pbft.leader_attack with
    | Some Pbft.Leader_stall -> true
    | _ -> false
  in
  List.iter
    (fun t ->
      if stall t then
        Alcotest.(check bool) "broken variant storms on every stall trial" true
          (t.Explore.stats.Explore.view_changes >= 1))
    d.Explore.broken.Explore.trials;
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Explore.params.Explore.variant.Config.name ^ " rides out the leader attacks")
        0
        (r.Explore.safety_violations + r.Explore.liveness_violations))
    d.Explore.safe;
  (* Only the relay watchdog catches selective serving, so AHLR alone must
     storm on the serve-only trials too. *)
  let ahlr =
    List.find
      (fun r -> r.Explore.params.Explore.variant.Config.name = Config.ahlr.Config.name)
      d.Explore.safe
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "AHLR storms on every trial" true
        (t.Explore.stats.Explore.view_changes >= 1))
    ahlr.Explore.trials

(* Testbed never advances the stable checkpoint, so a schedule that asks
   for [Config.watermark_window] requests or more stalls its correct
   leader at the watermark, whatever the attack. *)
let test_leader_schedule_below_watermark () =
  for i = 0 to 999 do
    let requests = (Explore.leader_schedule ~n:3 ~f:1 i).Schedule.requests in
    if requests >= Config.watermark_window then
      Alcotest.failf "trial %d asks for %d requests, the watermark window is %d" i requests
        Config.watermark_window
  done

let test_shrink_drops_leader_attack () =
  let s = sched ~byz:[ 0 ] ~split_brain:false ~leader:Pbft.Leader_stall ~requests:2 () in
  let cs = Schedule.candidates s in
  Alcotest.(check int) "leader attack is the only shrinkable axis" 1 (List.length cs);
  Alcotest.(check bool) "the candidate turns the leader honest" true
    (List.for_all (fun c -> c.Schedule.adversary.Pbft.leader_attack = None) cs)

let test_explore_json () =
  let r = Explore.run ~variant:Config.ahl ~n:3 ~f:1 ~trials:1 ~seed:11L ~budget:4 in
  let j = Explore.json_of_report r in
  Alcotest.(check bool) "variant named" true (contains j "\"variant\":\"AHL\"");
  Alcotest.(check bool) "per-trial results" true (contains j "\"engine_seed\":11");
  let s = Explore.json_summary ~wall_time:1.5 [ r ] in
  Alcotest.(check bool) "summary carries wall time" true (contains s "\"wall_time_s\":1.500");
  Alcotest.(check bool) "summary embeds the report" true (contains s "\"safety_violations\":0")

(* ------------------------------------------------------------------ *)
(* Cross-shard schedules                                                *)
(* ------------------------------------------------------------------ *)

open Repro_core

let xsched ?(txs = 3) ?(malicious = []) ?(overdraft = []) ?(contended = false) ?(faults = []) ()
    =
  { Xschedule.txs; malicious; overdraft; contended; faults }

let xfault ?(start = 1.0) ?(stop = 4.0) kind = { Xschedule.start; stop; kind }

let test_xschedule_roundtrip () =
  let s =
    xsched ~txs:5 ~malicious:[ 0; 3 ] ~overdraft:[ 1 ] ~contended:true
      ~faults:
        [
          xfault ~start:0.25 ~stop:(10.0 /. 3.0)
            (Xschedule.Drop_leg { leg = Xschedule.Vote; p = 1.0 /. 3.0 });
          xfault (Xschedule.Dup_leg { leg = Xschedule.Decision; p = 0.5 });
          xfault (Xschedule.Delay_leg { leg = Xschedule.Prepare; d = 7.25 });
          xfault (Xschedule.Crash_ref { member = 2 });
          xfault (Xschedule.Cut_shard 1);
        ]
      ()
  in
  let s' = Xschedule.of_string (Xschedule.to_string s) in
  Alcotest.(check string) "witness round-trips bit-exactly" (Xschedule.to_string s)
    (Xschedule.to_string s');
  Alcotest.(check int) "faults preserved" 5 (List.length s'.Xschedule.faults);
  Alcotest.(check (list int)) "malicious preserved" [ 0; 3 ] s'.Xschedule.malicious;
  Alcotest.(check bool) "contention preserved" true s'.Xschedule.contended

let test_xschedule_rejects_malformed () =
  let malformed w =
    match Xschedule.of_string w with
    | exception Witness.Invalid_witness _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "wrong version" true (malformed "v1 txs=2 mal=- over=- hot=0");
  Alcotest.(check bool) "garbage" true (malformed "garbage");
  Alcotest.(check bool) "unknown fault" true (malformed "x1 txs=2 mal=- over=- hot=0 zap:1:2");
  Alcotest.(check bool) "unknown leg" true
    (malformed "x1 txs=2 mal=- over=- hot=0 dropleg:xyz:0.5:1:2");
  Alcotest.(check bool) "non-numeric tx count" true (malformed "x1 txs=abc mal=- over=- hot=0");
  Alcotest.(check bool) "negative tx count" true (malformed "x1 txs=-3 mal=- over=- hot=0");
  Alcotest.(check bool) "non-numeric shard" true
    (malformed "x1 txs=2 mal=- over=- hot=0 cut:zz:1:2")

let test_xschedule_generation_deterministic () =
  let gen () =
    Xschedule.generate (Rng.split_named (Rng.create 42L) "0") ~shards:3 ~committee_size:4
  in
  Alcotest.(check string) "same rng, same schedule" (Xschedule.to_string (gen ()))
    (Xschedule.to_string (gen ()));
  let s = gen () in
  Alcotest.(check bool) "at least two txs" true (s.Xschedule.txs >= 2);
  Alcotest.(check bool) "at least one fault" true (s.Xschedule.faults <> []);
  let e = xfault ~start:1.0 ~stop:4.0 (Xschedule.Cut_shard 0) in
  Alcotest.(check bool) "active inside window" true (Xschedule.active e ~at:2.0);
  Alcotest.(check bool) "inactive at stop" false (Xschedule.active e ~at:4.0);
  Alcotest.(check (float 0.0)) "heal time is last stop" 4.0
    (Xschedule.heal_time (xsched ~faults:[ e ] ()));
  Alcotest.(check bool) "size shrinks with structure" true
    (Xschedule.size (xsched ~txs:6 ~malicious:[ 0 ] ~faults:[ e ] ())
    > Xschedule.size (xsched ~txs:2 ()))

(* Synthetic outcomes for the cross-shard oracles. *)

let xinfo ?(honest = true) ?(participants = [ 0; 1 ]) ?outcome txid =
  { Xtestbed.txid; honest; participants; outcome }

let xdecision ?(at = 1.0) ~txid ~shard commit = { System.at; txid; shard; commit }

let xoutcome ?(mode = System.With_reference) ?(infos = []) ?(decisions = []) ?(stuck_locks = 0)
    ?(total = (2000, 2000)) ?(ref_decisions = []) ?(ckpt_certs = []) ?(observer_lag = [])
    ?(merge_audit = []) () =
  let total_before, total_after = total in
  {
    Xtestbed.mode;
    infos;
    decisions;
    stuck_locks;
    total_before;
    total_after;
    ref_decisions;
    horizon = 60.0;
    registry_size = 0;
    ckpt_certs;
    observer_lag;
    merge_audit;
    merge_roots = [];
  }

let test_xoracle_atomicity () =
  (* tx 1 committed on shard 0, undecided on shard 1: partial commit. *)
  let o =
    xoutcome
      ~infos:[ xinfo ~outcome:System.Committed 1 ]
      ~decisions:[ xdecision ~txid:1 ~shard:0 true ]
      ()
  in
  (match Xoracle.check o with
  | [ Xoracle.Atomicity { txid = 1; committed_on = [ 0 ]; aborted_on = []; missing = [ 1 ] } ]
    ->
      ()
  | vs ->
      Alcotest.failf "expected one atomicity violation, got [%s]"
        (String.concat "; " (List.map Xoracle.to_string vs)));
  (* Commit-on-some with abort-elsewhere is the same bug. *)
  let o =
    xoutcome
      ~infos:[ xinfo ~outcome:System.Committed 1 ]
      ~decisions:[ xdecision ~txid:1 ~shard:0 true; xdecision ~txid:1 ~shard:1 false ]
      ()
  in
  Alcotest.(check bool) "commit+abort fires" true
    (List.exists
       (function Xoracle.Atomicity { aborted_on = [ 1 ]; _ } -> true | _ -> false)
       (Xoracle.check o));
  (* A single-shard transaction cannot violate atomicity. *)
  let o =
    xoutcome
      ~infos:[ xinfo ~participants:[ 0 ] ~outcome:System.Committed 1 ]
      ~decisions:[ xdecision ~txid:1 ~shard:0 true ]
      ()
  in
  Alcotest.(check int) "single participant exempt" 0 (List.length (Xoracle.check o))

let test_xoracle_divergence_and_conservation () =
  let o =
    xoutcome
      ~infos:[ xinfo ~outcome:System.Aborted 1 ]
      ~decisions:[ xdecision ~txid:1 ~shard:0 false; xdecision ~txid:1 ~shard:1 false ]
      ~ref_decisions:[ (1, true) ] ()
  in
  (match Xoracle.check o with
  | [ Xoracle.Divergence { txid = 1; ref_commit = true; _ }; Xoracle.Divergence _ ] -> ()
  | vs ->
      Alcotest.failf "expected two divergences, got [%s]"
        (String.concat "; " (List.map Xoracle.to_string vs)));
  let o = xoutcome ~total:(2000, 1995) () in
  match Xoracle.check o with
  | [ Xoracle.Conservation { before = 2000; after = 1995 } ] -> ()
  | vs ->
      Alcotest.failf "expected one conservation violation, got [%s]"
        (String.concat "; " (List.map Xoracle.to_string vs))

let test_xoracle_liveness_only_when_safe () =
  (* Undecided honest tx + stuck locks on an otherwise safe run. *)
  let o = xoutcome ~infos:[ xinfo 1; xinfo 2 ] ~stuck_locks:2 () in
  let vs = Xoracle.check o in
  Alcotest.(check bool) "stuck locks reported" true
    (List.exists (function Xoracle.Stuck_locks { count = 2 } -> true | _ -> false) vs);
  Alcotest.(check bool) "liveness reported with first txid" true
    (List.exists (function Xoracle.Liveness { missing = 2; first = 1 } -> true | _ -> false) vs);
  (* Same progress gaps are suppressed when the run is unsafe. *)
  let unsafe = xoutcome ~infos:[ xinfo 1 ] ~stuck_locks:2 ~total:(10, 9) () in
  Alcotest.(check bool) "only safety reported" true
    (List.for_all Xoracle.is_safety (Xoracle.check unsafe));
  (* A dishonest client's undecided tx only counts with a reference
     committee on duty. *)
  let abandoned mode = xoutcome ~mode ~infos:[ xinfo ~honest:false 1 ] () in
  Alcotest.(check bool) "R owes silent clients a decision" true
    (Xoracle.check (abandoned System.With_reference) <> []);
  Alcotest.(check int) "client-driven owes nothing" 0
    (List.length (Xoracle.check (abandoned System.Client_driven)))

let test_xoracle_ckpt_divergence () =
  (* Two members of committee 0 certify different roots for seq 16. *)
  let o =
    xoutcome
      ~ckpt_certs:[ (0, 0, 16, 111); (0, 1, 16, 222); (1, 0, 16, 333); (1, 1, 32, 444) ]
      ()
  in
  (match Xoracle.check o with
  | [ Xoracle.Ckpt_divergence { committee = 0; seq = 16; roots = [ 111; 222 ] } ] -> ()
  | vs ->
      Alcotest.failf "expected one ckpt divergence, got [%s]"
        (String.concat "; " (List.map Xoracle.to_string vs)));
  Alcotest.(check bool) "ckpt divergence is a safety violation" true
    (List.for_all Xoracle.is_safety (Xoracle.check o));
  (* It suppresses liveness-class findings like any safety violation. *)
  let with_lag =
    xoutcome ~ckpt_certs:[ (0, 0, 16, 111); (0, 1, 16, 222) ] ~observer_lag:[ (0, 99) ] ()
  in
  Alcotest.(check bool) "divergence suppresses stale-observer" true
    (List.for_all Xoracle.is_safety (Xoracle.check with_lag));
  (* Members whose highest certs sit at different seqs agree vacuously. *)
  let staggered = xoutcome ~ckpt_certs:[ (0, 0, 16, 111); (0, 1, 32, 222) ] () in
  Alcotest.(check int) "different seqs never compare" 0
    (List.length (Xoracle.check staggered));
  (* Same root twice is agreement, not divergence. *)
  let agree = xoutcome ~ckpt_certs:[ (0, 0, 16, 111); (0, 1, 16, 111) ] () in
  Alcotest.(check int) "matching roots pass" 0 (List.length (Xoracle.check agree))

let test_xoracle_stale_observer () =
  (* Lag strictly above one checkpoint interval fires; at or below it,
     the remaining tail is legitimately uncertified. *)
  let o = xoutcome ~observer_lag:[ (0, Xoracle.convergence_bound + 1); (1, Xoracle.convergence_bound); (2, 0) ] () in
  (match Xoracle.check o with
  | [ Xoracle.Stale_observer { committee = 0; lag } ]
    when lag = Xoracle.convergence_bound + 1 ->
      ()
  | vs ->
      Alcotest.failf "expected one stale observer, got [%s]"
        (String.concat "; " (List.map Xoracle.to_string vs)));
  Alcotest.(check bool) "stale observer is liveness-class" false
    (Xoracle.is_safety (Xoracle.Stale_observer { committee = 0; lag = 99 }));
  (* Suppressed on unsafe runs like the other liveness oracles. *)
  let unsafe = xoutcome ~observer_lag:[ (0, 99) ] ~total:(10, 9) () in
  Alcotest.(check bool) "suppressed when unsafe" true
    (List.for_all Xoracle.is_safety (Xoracle.check unsafe));
  Alcotest.(check bool) "bound is the checkpoint interval" true
    (Xoracle.convergence_bound = 16)

(* The cross-shard regression witness: the schedule the explorer found
   against the pre-fix fallback sweep (a silent client plus a dropped
   decision leg yielded a partial commit).  The fixed sweep must replay
   it clean. *)

let prefix_bug_witness =
  "x1 txs=6 mal=5 over=- hot=0 dropleg:dec:0.54010956549511413:6.5492538101898843:16.057947951576917"

let test_xtestbed_deterministic () =
  let s = Xschedule.of_string prefix_bug_witness in
  let run () =
    Xtestbed.run ~engine_seed:58L ~mode:System.With_reference
      ~concurrency:System.Two_phase_locking ~shards:2 ~committee_size:4 s
  in
  let a = run () and b = run () in
  let pp (o : Xtestbed.outcome) =
    List.map
      (fun (d : System.decision_event) ->
        Printf.sprintf "%.17g:%d:%d:%b" d.System.at d.System.txid d.System.shard d.System.commit)
      o.Xtestbed.decisions
  in
  Alcotest.(check (list string)) "bit-identical decision traces" (pp a) (pp b);
  Alcotest.(check int) "same stuck locks" a.Xtestbed.stuck_locks b.Xtestbed.stuck_locks;
  Alcotest.(check int) "same final total" a.Xtestbed.total_after b.Xtestbed.total_after;
  Alcotest.(check bool) "horizon grants grace" true
    (a.Xtestbed.horizon >= Xschedule.heal_time s +. Xtestbed.grace)

let test_fallback_sweep_regression () =
  (* Evidence-based sweep: no violation survives the witness replay. *)
  let vs =
    Xexplore.replay ~mode:System.With_reference ~concurrency:System.Two_phase_locking ~shards:2
      ~committee_size:4 ~engine_seed:58L
      (Xschedule.of_string prefix_bug_witness)
  in
  Alcotest.(check (list string)) "fixed sweep survives the witness" []
    (List.map Xoracle.to_string vs)

(* The checker explores the protocol the figures run: the fallback-sweep
   regression witness replays clean with its with-reference Begin/Vote
   steps moved in batch carriers. *)
let test_fallback_sweep_witness_batched () =
  let metrics = Repro_obs.Metrics.create () in
  let probe = Repro_obs.Probe.make ~trace:(Repro_obs.Trace.create ()) ~metrics in
  let outcome =
    Xtestbed.run ~probe ~engine_seed:58L ~mode:System.With_reference
      ~concurrency:System.Two_phase_locking ~shards:2 ~committee_size:4
      (Xschedule.of_string prefix_bug_witness)
  in
  let samples =
    match Repro_obs.Metrics.histogram_stats metrics "2pc.batch.size" with
    | Some s -> Repro_util.Stats.count s
    | None -> 0
  in
  Alcotest.(check bool) "batch-size samples recorded" true (samples > 0);
  Alcotest.(check (list string)) "batched replay stays clean" []
    (List.map Xoracle.to_string (Xoracle.check outcome))

(* The recovered-observer regression witnesses.  Before checkpoint
   catch-up existed, a crashed-and-recovered observer rejoined at its
   pre-crash sequence and silently diverged from its committee — stuck
   locks and undecided transactions at the horizon.  With the fetch
   protocol the replays must come back clean, with the observer fully
   converged. *)

let crashobs_witness = "x1 txs=4 mal=- over=- hot=0 crashobs:0:2:10"

let test_crashobs_recovery_witness () =
  let vs =
    Xexplore.replay ~mode:System.With_reference ~concurrency:System.Two_phase_locking ~shards:2
      ~committee_size:4 ~engine_seed:33L
      (Xschedule.of_string crashobs_witness)
  in
  Alcotest.(check (list string)) "recovered observer converges" []
    (List.map Xoracle.to_string vs)

(* Recovery across a checkpoint boundary: a contended workload keeps
   shard 0 committing while its observer is down for 18 s, so the live
   members certify at least one full checkpoint interval above the
   observer's last executed slot — the recovery path must replay through
   the certified boundary, not just the uncertified tail. *)
let ckpt_boundary_witness = "x1 txs=24 mal=- over=- hot=1 crashobs:0:2:20"

let test_crashobs_checkpoint_boundary () =
  let trace = Repro_obs.Trace.create () and metrics = Repro_obs.Metrics.create () in
  let probe = Repro_obs.Probe.make ~trace ~metrics in
  let o =
    Xtestbed.run ~probe ~engine_seed:33L ~mode:System.With_reference
      ~concurrency:System.Two_phase_locking ~shards:2 ~committee_size:4
      (Xschedule.of_string ckpt_boundary_witness)
  in
  Alcotest.(check (list string)) "clean across the boundary" []
    (List.map Xoracle.to_string (Xoracle.check o));
  let shard0_seqs =
    List.filter_map (fun (c, _, seq, _) -> if c = 0 then Some seq else None) o.Xtestbed.ckpt_certs
  in
  Alcotest.(check bool) "committee certified at least one full interval" true
    (List.exists (fun s -> s >= 16) shard0_seqs);
  Alcotest.(check bool) "observer fully converged at quiescence" true
    (List.for_all (fun (_, lag) -> lag = 0) o.Xtestbed.observer_lag);
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Repro_obs.Metrics.counters metrics))
  in
  Alcotest.(check bool) "recovery used the fetch protocol" true (counter "ckpt.fetch.applied" >= 1);
  Alcotest.(check bool) "missed slots were replayed, not skipped" true
    (counter "ckpt.fetch.blocks_replayed" >= 16)

let test_flattened_silent_client_clean () =
  (* The flattened variant keeps a coordinator machine on the shard
     committees, so it owes silent clients the same fallback R does. *)
  let vs =
    Xexplore.replay ~mode:System.Flattened ~concurrency:System.Two_phase_locking ~shards:2
      ~committee_size:3 ~engine_seed:21L Xexplore.silent_client_schedule
  in
  Alcotest.(check (list string)) "flattened finishes the silent client" []
    (List.map Xoracle.to_string vs)

(* The figure-14 argument on the batched commit path, at a wider
   configuration than the json differential test. *)
let test_differential_holds_batched () =
  let d = Xexplore.differential ~shards:3 ~committee_size:4 ~seed:34L () in
  Alcotest.(check bool) "figure-14 argument survives batching" true d.Xexplore.holds

let test_xshrink_candidates_and_minimize () =
  let s =
    xsched ~txs:8 ~malicious:[ 0; 2 ] ~overdraft:[ 1 ] ~contended:true
      ~faults:[ xfault (Xschedule.Cut_shard 1); xfault (Xschedule.Crash_ref { member = 1 }) ]
      ()
  in
  (* 2 fault drops + un-contend + clear overdrafts + shrink malicious +
     halve txs = 6 one-step candidates. *)
  Alcotest.(check int) "one-step candidates" 6 (List.length (Xschedule.candidates s));
  Alcotest.(check int) "minimal schedule has no candidates" 0
    (List.length (Xschedule.candidates (xsched ~txs:2 ())));
  let v = Xoracle.Stuck_locks { count = 1 } in
  let shrunk, reruns = Xexplore.shrink ~replay:(fun _ -> Some v) ~budget:64 s v in
  Alcotest.(check int) "all faults dropped" 0 (List.length shrunk.Xschedule.faults);
  Alcotest.(check bool) "un-contended" false shrunk.Xschedule.contended;
  Alcotest.(check (list int)) "overdrafts cleared" [] shrunk.Xschedule.overdraft;
  Alcotest.(check int) "txs at floor" 2 shrunk.Xschedule.txs;
  Alcotest.(check int) "one malicious client kept" 1 (List.length shrunk.Xschedule.malicious);
  Alcotest.(check bool) "within budget" true (reruns <= 64);
  let kept, _ = Xexplore.shrink ~replay:(fun _ -> None) ~budget:8 s v in
  Alcotest.(check string) "irreproducible keeps original" (Xschedule.to_string s)
    (Xschedule.to_string kept)

let test_xexplore_differential_and_json () =
  let d = Xexplore.differential ~shards:2 ~committee_size:3 ~seed:21L () in
  Alcotest.(check bool) "differential holds" true d.Xexplore.holds;
  Alcotest.(check int) "fallback leaves nothing behind" 0 (List.length d.Xexplore.with_ref);
  Alcotest.(check bool) "client-driven leaves stuck locks" true
    (List.exists
       (function Xoracle.Stuck_locks _ -> true | _ -> false)
       d.Xexplore.client_driven);
  let j = Xexplore.json_of_differential d in
  Alcotest.(check bool) "json carries the verdict" true (contains j "\"holds\":true");
  Alcotest.(check bool) "silent client is honest-flagged in the schedule" true
    (Xexplore.silent_client_schedule.Xschedule.malicious = [ 0 ]);
  (* A small explorer run in each mode stays clean post-fix and reports
     deterministically. *)
  let r =
    Xexplore.run ~mode:System.With_reference ~concurrency:System.Two_phase_locking ~shards:2
      ~committee_size:3 ~trials:2 ~seed:11L ~budget:8 ()
  in
  Alcotest.(check int) "no safety violations" 0 r.Xexplore.safety_violations;
  Alcotest.(check int) "no liveness violations" 0 r.Xexplore.liveness_violations;
  Alcotest.(check int64) "engine seed is base + index" 14L (Xexplore.engine_seed_for ~seed:11L 3);
  let a = Xexplore.schedule_for ~seed:7L ~shards:2 ~committee_size:3 2 in
  let b = Xexplore.schedule_for ~seed:7L ~shards:2 ~committee_size:3 2 in
  Alcotest.(check string) "schedule_for deterministic" (Xschedule.to_string a)
    (Xschedule.to_string b);
  Alcotest.(check string) "mode names round-trip" "with-reference"
    (Xexplore.mode_name System.With_reference);
  Alcotest.(check bool) "mode parsing" true
    (Xexplore.mode_of_name "client" = Some System.Client_driven);
  Alcotest.(check bool) "concurrency parsing" true
    (Xexplore.concurrency_of_name "waitdie" = Some System.Wait_die);
  let rj = Xexplore.json_of_report r in
  Alcotest.(check bool) "report json names the mode" true
    (contains rj "\"mode\":\"with-reference\"")

(* ------------------------------------------------------------------ *)
(* Commutative fast lane (DESIGN §18)                                  *)
(* ------------------------------------------------------------------ *)

let test_xoracle_merge_divergence () =
  (* A shard whose materialised state disagrees with the canonical fold of
     its delta log is a safety violation in its own right. *)
  let o =
    xoutcome
      ~merge_audit:[ (1, { Repro_ledger.Merge.mkey = "ctr_x"; expected = "15"; actual = "99" }) ]
      ()
  in
  match Xoracle.check o with
  | [ Xoracle.Merge_divergence { shard = 1; key = "ctr_x"; expected = "15"; actual = "99" } ] as vs
    ->
      Alcotest.(check bool) "merge divergence is safety" true (List.for_all Xoracle.is_safety vs);
      Alcotest.(check bool) "message names the key" true
        (contains (Xoracle.to_string (List.hd vs)) "ctr_x")
  | vs ->
      Alcotest.failf "expected one merge divergence, got [%s]"
        (String.concat "; " (List.map Xoracle.to_string vs))

let test_xschedule_lane_generation () =
  let gen () =
    Xschedule.generate_lane (Rng.split_named (Rng.create 42L) "0") ~shards:3 ~committee_size:4
  in
  Alcotest.(check string) "same rng, same lane schedule" (Xschedule.to_string (gen ()))
    (Xschedule.to_string (gen ()));
  let s = gen () in
  Alcotest.(check (list int)) "lane schedules keep clients honest" [] s.Xschedule.malicious;
  Alcotest.(check bool) "extra faults beyond the base draw" true
    (List.length s.Xschedule.faults
    > List.length
        (Xschedule.generate (Rng.split_named (Rng.create 42L) "0") ~shards:3 ~committee_size:4)
          .Xschedule.faults);
  (* The delta-leg token round-trips through the witness. *)
  let with_mrg =
    xsched ~faults:[ xfault (Xschedule.Drop_leg { leg = Xschedule.Mdelta; p = 0.5 }) ] ()
  in
  let w = Xschedule.to_string with_mrg in
  Alcotest.(check bool) "witness carries the mrg token" true (contains w "dropleg:mrg");
  Alcotest.(check string) "mrg witness round-trips" w
    (Xschedule.to_string (Xschedule.of_string w))

let test_xexplore_fastlane_trials_clean () =
  (* A batch of adversarial fast-lane trials — delta legs dropped, delayed,
     duplicated — must leave every oracle green: conservation holds and
     each shard's state is exactly the canonical fold of its delta log. *)
  let r =
    Xexplore.run ~mode:System.With_reference ~concurrency:System.Two_phase_locking ~lane:true
      ~shards:2 ~committee_size:3 ~trials:2 ~seed:33L ~budget:8 ()
  in
  Alcotest.(check int) "no safety violations" 0 r.Xexplore.safety_violations;
  Alcotest.(check int) "no liveness violations" 0 r.Xexplore.liveness_violations;
  Alcotest.(check bool) "report is lane-flagged" true r.Xexplore.params.Xexplore.lane;
  Alcotest.(check bool) "json carries the lane flag" true
    (contains (Xexplore.json_of_report r) "\"fast_lane\":true")

(* ------------------------------------------------------------------ *)
(* Witness codec properties                                            *)
(* ------------------------------------------------------------------ *)

let arb_witness =
  let open QCheck.Gen in
  let consensus =
    map3
      (fun seed n f ->
        let f = 1 + (f mod Int.max 1 ((n - 1) / 2)) in
        Schedule.to_string (Schedule.generate (Rng.create seed) ~n ~f))
      ui64 (3 -- 9) nat
  in
  let cross =
    map3
      (fun seed (shards, committee_size) lane ->
        let draw = if lane then Xschedule.generate_lane else Xschedule.generate in
        Xschedule.to_string (draw (Rng.create seed) ~shards ~committee_size))
      ui64
      (pair (2 -- 6) (3 -- 7))
      bool
  in
  QCheck.make ~print:Fun.id (oneof [ consensus; cross ])

let parse w =
  if String.starts_with ~prefix:"x1" w then Xschedule.to_string (Xschedule.of_string w)
  else Schedule.to_string (Schedule.of_string w)

let prop_witness_roundtrip =
  QCheck.Test.make ~name:"generated witnesses round-trip byte-identically" ~count:300
    arb_witness (fun w -> String.equal (parse w) w)

(* Replace one token, or one ':'-separated piece of it (just the value
   after a [key=]), with junk: the codec must parse it or raise
   Invalid_witness, never anything else. *)
let mutate w (i, j, whole, junk) =
  let toks = Array.of_list (String.split_on_char ' ' w) in
  let i = i mod Array.length toks in
  (if whole then toks.(i) <- junk
   else
     let pieces = Array.of_list (String.split_on_char ':' toks.(i)) in
     let j = j mod Array.length pieces in
     pieces.(j) <-
       (match String.index_opt pieces.(j) '=' with
       | Some k -> String.sub pieces.(j) 0 (k + 1) ^ junk
       | None -> junk);
     toks.(i) <- String.concat ":" (Array.to_list pieces));
  String.concat " " (Array.to_list toks)

let prop_witness_mutation_typed =
  let junk =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:char (0 -- 6);
          oneofl [ ""; "-"; "-3"; "abc"; "1e400"; "nan"; "0x1f"; "1,2"; "+"; ">"; "=" ];
        ])
  in
  let edit = QCheck.Gen.(quad nat nat bool junk) in
  QCheck.Test.make ~name:"mutated witnesses parse or raise Invalid_witness" ~count:1000
    (QCheck.pair arb_witness (QCheck.make edit))
    (fun (w, e) ->
      match parse (mutate w e) with
      | _ -> true
      | exception Witness.Invalid_witness _ -> true)

let () =
  Alcotest.run "check"
    [
      ( "schedule",
        [
          Alcotest.test_case "witness round-trips" `Quick test_schedule_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_schedule_rejects_malformed;
          Alcotest.test_case "generation deterministic" `Quick
            test_schedule_generation_deterministic;
          Alcotest.test_case "heal/active/size" `Quick test_schedule_heal_active_size;
          Alcotest.test_case "leader token round-trips" `Quick test_schedule_leader_token;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "agreement" `Quick test_oracle_agreement;
          Alcotest.test_case "order gap" `Quick test_oracle_order_gap;
          Alcotest.test_case "validity" `Quick test_oracle_validity;
          Alcotest.test_case "liveness only when safe" `Quick test_oracle_liveness_only_when_safe;
          Alcotest.test_case "clean run" `Quick test_oracle_clean_run;
          Alcotest.test_case "kinds" `Quick test_oracle_kinds;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "candidates" `Quick test_shrink_candidates;
          Alcotest.test_case "drops leader attack" `Quick test_shrink_drops_leader_attack;
          Alcotest.test_case "greedy and bounded" `Quick test_shrink_minimize_greedy_and_bounded;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "deterministic" `Quick test_testbed_deterministic;
          Alcotest.test_case "horizon uses grace" `Quick test_testbed_horizon_uses_grace;
        ] );
      ( "explore",
        [
          Alcotest.test_case "variant names" `Quick test_variant_names;
          Alcotest.test_case "trial seeding" `Quick test_trial_seeding;
          Alcotest.test_case "differential holds; witness replays" `Quick
            test_differential_holds_and_witness_replays;
          Alcotest.test_case "leader-stall differential holds" `Quick
            test_leader_stall_differential_holds;
          Alcotest.test_case "leader schedule stays below the watermark" `Quick
            test_leader_schedule_below_watermark;
          Alcotest.test_case "json reports" `Quick test_explore_json;
        ] );
      ( "xschedule",
        [
          Alcotest.test_case "witness round-trips" `Quick test_xschedule_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_xschedule_rejects_malformed;
          Alcotest.test_case "generation deterministic" `Quick
            test_xschedule_generation_deterministic;
          Alcotest.test_case "lane generation" `Quick test_xschedule_lane_generation;
        ] );
      ( "xoracle",
        [
          Alcotest.test_case "atomicity" `Quick test_xoracle_atomicity;
          Alcotest.test_case "divergence and conservation" `Quick
            test_xoracle_divergence_and_conservation;
          Alcotest.test_case "liveness only when safe" `Quick
            test_xoracle_liveness_only_when_safe;
          Alcotest.test_case "checkpoint divergence" `Quick test_xoracle_ckpt_divergence;
          Alcotest.test_case "stale observer" `Quick test_xoracle_stale_observer;
          Alcotest.test_case "merge divergence" `Quick test_xoracle_merge_divergence;
        ] );
      ( "xtestbed",
        [
          Alcotest.test_case "deterministic" `Quick test_xtestbed_deterministic;
          Alcotest.test_case "fallback sweep regression" `Quick test_fallback_sweep_regression;
          Alcotest.test_case "fallback sweep witness, batched" `Quick
            test_fallback_sweep_witness_batched;
          Alcotest.test_case "crashobs recovery witness" `Quick test_crashobs_recovery_witness;
          Alcotest.test_case "crashobs checkpoint boundary" `Quick
            test_crashobs_checkpoint_boundary;
          Alcotest.test_case "flattened silent client" `Quick
            test_flattened_silent_client_clean;
          Alcotest.test_case "differential holds batched" `Quick
            test_differential_holds_batched;
        ] );
      ("xshrink", [ Alcotest.test_case "candidates and minimize" `Quick test_xshrink_candidates_and_minimize ]);
      ( "xexplore",
        [
          Alcotest.test_case "differential, explorer, json" `Quick
            test_xexplore_differential_and_json;
          Alcotest.test_case "fast-lane trials clean" `Quick test_xexplore_fastlane_trials_clean;
        ] );
      ( "witness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_witness_roundtrip; prop_witness_mutation_typed ] );
    ]

open Repro_util

type leg = Prepare | Vote | Decision | Mdelta

type fault_kind =
  | Drop_leg of { leg : leg; p : float }
  | Dup_leg of { leg : leg; p : float }
  | Delay_leg of { leg : leg; d : float }
  | Crash_ref of { member : int }
  | Cut_shard of int
  | Crash_observer of { shard : int }
  | Epoch_wave of { epoch : int }

type fault = { start : float; stop : float; kind : fault_kind }

type t = {
  txs : int;
  malicious : int list;
  overdraft : int list;
  contended : bool;
  faults : fault list;
}

let heal_time t = List.fold_left (fun acc f -> Float.max acc f.stop) 0.0 t.faults

let active f ~at = at >= f.start && at < f.stop

let size t =
  List.length t.faults + List.length t.malicious + List.length t.overdraft
  + (if t.contended then 1 else 0)
  + t.txs

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let gen_fault_with ~leg rng ~shards ~committee_size =
  let start = Rng.float rng 8.0 in
  let stop = start +. 1.0 +. Rng.float rng 12.0 in
  let kind =
    match Rng.int rng 7 with
    | 0 -> Drop_leg { leg = leg (); p = 0.3 +. Rng.float rng 0.7 }
    | 1 -> Dup_leg { leg = leg (); p = 0.3 +. Rng.float rng 0.7 }
    | 2 ->
        (* Long enough to sail past client_fallback_timeout: the window
           where a sweep racing a slow prepare used to guess wrong. *)
        Delay_leg { leg = leg (); d = 2.0 +. Rng.float rng 12.0 }
    | 3 ->
        (* Member 0 is the observer (pinned infrastructure); crash a
           backup of R, the paper's crash-fault model for the committee. *)
        Crash_ref { member = 1 + Rng.int rng (Int.max 1 (committee_size - 1)) }
    | 4 -> Cut_shard (Rng.int rng shards)
    | 5 ->
        (* The hard crash: a shard's observer, where state materializes —
           execution stalls until recovery and retries must re-drive. *)
        Crash_observer { shard = Rng.int rng shards }
    | _ ->
        (* A full Section-5 epoch transition racing the 2PC legs:
           transitioning replicas go offline in waves mid-protocol. *)
        Epoch_wave { epoch = 1 + Rng.int rng 3 }
  in
  { start; stop; kind }

(* The legacy leg draw: three legs, draw shape untouched so every
   pre-fast-lane seed still generates the identical schedule. *)
let gen_fault rng ~shards ~committee_size =
  gen_fault_with rng ~shards ~committee_size ~leg:(fun () ->
      match Rng.int rng 3 with 0 -> Prepare | 1 -> Vote | _ -> Decision)

let generate rng ~shards ~committee_size =
  let txs = 2 + Rng.int rng 5 in
  let indices = List.init txs Fun.id in
  let malicious = List.filter (fun _ -> Rng.int rng 3 = 0) indices in
  let overdraft = List.filter (fun _ -> Rng.int rng 5 = 0) indices in
  let contended = Rng.int rng 4 = 0 in
  let faults =
    List.init (1 + Rng.int rng 3) (fun _ -> gen_fault rng ~shards ~committee_size)
  in
  { txs; malicious; overdraft; contended; faults }

(* Fast-lane trials: the leg draw includes delta legs, and no client goes
   silent — the lane has no vote relay to abandon (silent clients are the
   2PC attack; its delta legs are re-driven by the submitting client's
   retry, which a schedule's drop/delay windows already race). *)
let generate_lane rng ~shards ~committee_size =
  let sched = generate rng ~shards ~committee_size in
  let lane_faults =
    List.init
      (1 + Rng.int rng 2)
      (fun _ ->
        gen_fault_with rng ~shards ~committee_size ~leg:(fun () ->
            match Rng.int rng 4 with
            | 0 -> Prepare
            | 1 -> Vote
            | 2 -> Decision
            | _ -> Mdelta))
  in
  { sched with malicious = []; faults = sched.faults @ lane_faults }

(* ------------------------------------------------------------------ *)
(* Shrinking candidates                                                *)
(* ------------------------------------------------------------------ *)

let restrict indices ~txs = List.filter (fun i -> i < txs) indices

let candidates s =
  let drop_faults =
    List.mapi (fun i _ -> { s with faults = List.filteri (fun j _ -> j <> i) s.faults }) s.faults
  in
  let simpler_flags =
    (if s.contended then [ { s with contended = false } ] else [])
    @ match s.overdraft with [] -> [] | _ -> [ { s with overdraft = [] } ]
  in
  let fewer_malicious =
    match List.rev s.malicious with
    | [] | [ _ ] -> [] (* keep at least one silent client: it is the attack *)
    | _ :: keep -> [ { s with malicious = List.rev keep } ]
  in
  let fewer_txs =
    if s.txs > 2 then
      let txs = Int.max 2 (s.txs / 2) in
      [
        {
          s with
          txs;
          malicious = restrict s.malicious ~txs;
          overdraft = restrict s.overdraft ~txs;
        };
      ]
    else []
  in
  drop_faults @ simpler_flags @ fewer_malicious @ fewer_txs

(* ------------------------------------------------------------------ *)
(* Witness serialization                                               *)
(* ------------------------------------------------------------------ *)

let fl = Witness.fl

let string_of_leg = function
  | Prepare -> "prep"
  | Vote -> "vote"
  | Decision -> "dec"
  | Mdelta -> "mrg"

let leg_of_string = function
  | "prep" -> Prepare
  | "vote" -> Vote
  | "dec" -> Decision
  | "mrg" -> Mdelta
  | s -> raise (Witness.Invalid_witness s)

let string_of_fault f =
  let window = Printf.sprintf "%s:%s" (fl f.start) (fl f.stop) in
  match f.kind with
  | Drop_leg { leg; p } -> Printf.sprintf "dropleg:%s:%s:%s" (string_of_leg leg) (fl p) window
  | Dup_leg { leg; p } -> Printf.sprintf "dupleg:%s:%s:%s" (string_of_leg leg) (fl p) window
  | Delay_leg { leg; d } -> Printf.sprintf "delayleg:%s:%s:%s" (string_of_leg leg) (fl d) window
  | Crash_ref { member } -> Printf.sprintf "crashref:%d:%s" member window
  | Cut_shard s -> Printf.sprintf "cut:%d:%s" s window
  | Crash_observer { shard } -> Printf.sprintf "crashobs:%d:%s" shard window
  | Epoch_wave { epoch } -> Printf.sprintf "epochwave:%d:%s" epoch window

let fault_of_string tok =
  let parts, start, stop = Witness.timed tok in
  let kind =
    match parts with
    | [ "dropleg"; leg; p ] -> Drop_leg { leg = leg_of_string leg; p = Witness.float p }
    | [ "dupleg"; leg; p ] -> Dup_leg { leg = leg_of_string leg; p = Witness.float p }
    | [ "delayleg"; leg; d ] -> Delay_leg { leg = leg_of_string leg; d = Witness.float d }
    | [ "crashref"; member ] -> Crash_ref { member = Witness.nat member }
    | [ "cut"; shard ] -> Cut_shard (Witness.nat shard)
    | [ "crashobs"; shard ] -> Crash_observer { shard = Witness.nat shard }
    | [ "epochwave"; epoch ] -> Epoch_wave { epoch = Witness.nat epoch }
    | _ -> raise (Witness.Invalid_witness tok)
  in
  { start; stop; kind }

let to_string t =
  String.concat " "
    ("x1" :: Printf.sprintf "txs=%d" t.txs
    :: Printf.sprintf "mal=%s" (Witness.ids t.malicious)
    :: Printf.sprintf "over=%s" (Witness.ids t.overdraft)
    :: Printf.sprintf "hot=%d" (if t.contended then 1 else 0)
    :: List.map string_of_fault t.faults)

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | "x1" :: txs :: mal :: over :: hot :: faults ->
      let field = Witness.field ~witness:s in
      {
        txs = Witness.nat (field "txs" txs);
        malicious = Witness.ids_of (field "mal" mal);
        overdraft = Witness.ids_of (field "over" over);
        contended = String.equal (field "hot" hot) "1";
        faults = List.map fault_of_string faults;
      }
  | _ -> raise (Witness.Invalid_witness s)

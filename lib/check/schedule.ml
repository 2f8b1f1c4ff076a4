open Repro_util
module Pbft = Repro_consensus.Pbft

type event_kind =
  | Drop of float
  | Jitter of float
  | Duplicate of float
  | Partition of int list
  | Silence of { from_ : int; toward : int }

type event = { start : float; stop : float; kind : event_kind }

type t = { adversary : Pbft.adversary; requests : int; events : event list }

let heal_time t = List.fold_left (fun acc ev -> Float.max acc ev.stop) 0.0 t.events

let active ev ~at = at >= ev.start && at < ev.stop

let size t =
  let a = t.adversary in
  List.length t.events + List.length a.byzantine + List.length a.silent_toward
  + (if a.stale_view_replay then 1 else 0)
  + (match a.leader_attack with None -> 0 | Some _ -> 1)
  + (t.requests / 2)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let gen_event rng ~n =
  let start = Rng.float rng 5.0 in
  let stop = start +. 1.0 +. Rng.float rng 9.0 in
  let kind =
    match Rng.int rng 5 with
    | 0 -> Drop (0.05 +. Rng.float rng 0.25)
    | 1 -> Jitter (0.01 +. Rng.float rng 0.4)
    | 2 -> Duplicate (0.05 +. Rng.float rng 0.4)
    | 3 ->
        (* Isolate a strict minority so the rest of the committee can keep
           (or resume) making progress once the window closes. *)
        let k = 1 + Rng.int rng (Int.max 1 ((n - 1) / 2)) in
        let perm = Rng.permutation rng n in
        Partition (List.sort Int.compare (List.init k (fun i -> perm.(i))))
    | _ ->
        let from_ = Rng.int rng n in
        let toward = (from_ + 1 + Rng.int rng (n - 1)) mod n in
        Silence { from_; toward }
  in
  { start; stop; kind }

let generate rng ~n ~f =
  let byzantine = List.init f (fun i -> i) in
  let split_brain = f >= 1 in
  let stale_view_replay = f >= 1 && Rng.bool rng in
  let silent_toward =
    (* Occasionally the byzantine clique ghosts one high-indexed honest
       member entirely (selective silence, Section 3.3 flavour). *)
    if f >= 1 && n - f > 2 && Rng.int rng 4 = 0 then [ n - 1 ] else []
  in
  let requests = 2 * Rng.int_in rng 4 11 in
  let events = List.init (Rng.int rng 4) (fun _ -> gen_event rng ~n) in
  (* Leader attacks: the clique campaigns for (and wins) leader slots.
     Drawn after every other field so seeds from the pre-leader-attack
     palette keep generating the same base schedules. *)
  let leader_attack =
    if f >= 1 && Rng.int rng 3 = 0 then
      match Rng.int rng 3 with
      | 0 -> Some Pbft.Leader_stall
      | 1 ->
          (* Serve every replica except one high-indexed honest member. *)
          let starved = n - 1 in
          let served = List.filter (fun i -> i <> starved) (List.init n (fun i -> i)) in
          Some (Pbft.Leader_serve_only served)
      | _ -> Some (Pbft.Leader_drip 1.9) (* just under the 2 s progress watchdog *)
    else None
  in
  {
    adversary = { byzantine; split_brain; silent_toward; stale_view_replay; leader_attack };
    requests;
    events;
  }

(* ------------------------------------------------------------------ *)
(* Shrinking candidates                                                *)
(* ------------------------------------------------------------------ *)

let candidates s =
  let a = s.adversary in
  let with_adversary adversary = { s with adversary } in
  let drop_events =
    List.mapi (fun i _ -> { s with events = List.filteri (fun j _ -> j <> i) s.events }) s.events
  in
  let simpler_flags =
    (if a.stale_view_replay then [ with_adversary { a with stale_view_replay = false } ] else [])
    @ (match a.leader_attack with
      | None -> []
      | Some _ -> [ with_adversary { a with leader_attack = None } ])
    @
    match a.silent_toward with [] -> [] | _ -> [ with_adversary { a with silent_toward = [] } ]
  in
  let fewer_requests =
    if s.requests > 2 then [ { s with requests = Int.max 2 (s.requests / 2) } ] else []
  in
  let fewer_byz =
    match List.rev a.byzantine with
    | [] | [ _ ] -> [] (* keep at least one byzantine: it is the attack *)
    | _ :: keep -> [ with_adversary { a with byzantine = List.rev keep } ]
  in
  drop_events @ simpler_flags @ fewer_byz @ fewer_requests

(* ------------------------------------------------------------------ *)
(* Witness serialization                                               *)
(* ------------------------------------------------------------------ *)

let fl = Witness.fl

let plus_ids ids = String.concat "+" (List.map string_of_int ids)

let string_of_event ev =
  let window = Printf.sprintf "%s:%s" (fl ev.start) (fl ev.stop) in
  match ev.kind with
  | Drop p -> Printf.sprintf "drop:%s:%s" (fl p) window
  | Jitter d -> Printf.sprintf "jit:%s:%s" (fl d) window
  | Duplicate p -> Printf.sprintf "dup:%s:%s" (fl p) window
  | Partition group -> Printf.sprintf "part:%s:%s" (plus_ids group) window
  | Silence { from_; toward } -> Printf.sprintf "sil:%d>%d:%s" from_ toward window

let event_of_string tok =
  let parts, start, stop = Witness.timed tok in
  let kind =
    match parts with
    | [ "drop"; p ] -> Drop (Witness.float p)
    | [ "jit"; d ] -> Jitter (Witness.float d)
    | [ "dup"; p ] -> Duplicate (Witness.float p)
    | [ "part"; group ] -> Partition (Witness.nats '+' group)
    | [ "sil"; cut ] -> (
        match Witness.nats '>' cut with
        | [ from_; toward ] -> Silence { from_; toward }
        | _ -> raise (Witness.Invalid_witness tok))
    | _ -> raise (Witness.Invalid_witness tok)
  in
  { start; stop; kind }

let string_of_leader = function
  | Pbft.Leader_stall -> "stall"
  | Pbft.Leader_serve_only ids -> Printf.sprintf "serve:%s" (plus_ids ids)
  | Pbft.Leader_drip interval -> Printf.sprintf "drip:%s" (fl interval)

let leader_of_string s witness =
  match String.split_on_char ':' s with
  | [ "stall" ] -> Pbft.Leader_stall
  | [ "serve"; ids ] -> Pbft.Leader_serve_only (Witness.nats '+' ids)
  | [ "drip"; interval ] -> Pbft.Leader_drip (Witness.float interval)
  | _ -> raise (Witness.Invalid_witness witness)

let to_string t =
  let a = t.adversary in
  String.concat " "
    (("v1" :: Printf.sprintf "byz=%s" (Witness.ids a.byzantine)
     :: Printf.sprintf "sb=%d" (if a.split_brain then 1 else 0)
     :: Printf.sprintf "stale=%d" (if a.stale_view_replay then 1 else 0)
     :: Printf.sprintf "quiet=%s" (Witness.ids a.silent_toward)
     :: Printf.sprintf "req=%d" t.requests
     ::
     (match a.leader_attack with
     | None -> List.map string_of_event t.events
     | Some l -> Printf.sprintf "lead=%s" (string_of_leader l) :: List.map string_of_event t.events)))

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | "v1" :: byz :: sb :: stale :: quiet :: req :: rest ->
      let field = Witness.field ~witness:s in
      (* The [lead=] token is optional, so pre-leader-attack witnesses
         stay replayable verbatim. *)
      let leader_attack, events =
        match rest with
        | tok :: tl when String.starts_with ~prefix:"lead=" tok ->
            (Some (leader_of_string (field "lead" tok) s), tl)
        | _ -> (None, rest)
      in
      {
        adversary =
          {
            byzantine = Witness.ids_of (field "byz" byz);
            split_brain = String.equal (field "sb" sb) "1";
            stale_view_replay = String.equal (field "stale" stale) "1";
            silent_toward = Witness.ids_of (field "quiet" quiet);
            leader_attack;
          };
        requests = Witness.nat (field "req" req);
        events = List.map event_of_string events;
      }
  | _ -> raise (Witness.Invalid_witness s)

open Repro_util

type event_kind =
  | Drop of float
  | Jitter of float
  | Duplicate of float
  | Partition of int list
  | Silence of { from_ : int; toward : int }

type event = { start : float; stop : float; kind : event_kind }

type leader_attack =
  | Stall  (** the byzantine clique wins leader slots and withholds batches *)
  | Serve_only of int list  (** serves pre-prepares/commits only to these peers *)
  | Drip of float  (** one batch per interval, probing the watchdog boundary *)

type t = {
  byz : int list;
  split_brain : bool;
  stale_replay : bool;
  silent_toward : int list;
  leader : leader_attack option;
  requests : int;
  events : event list;
}

let heal_time t = List.fold_left (fun acc ev -> Float.max acc ev.stop) 0.0 t.events

let active ev ~at = at >= ev.start && at < ev.stop

let size t =
  List.length t.events + List.length t.byz + List.length t.silent_toward
  + (if t.stale_replay then 1 else 0)
  + (match t.leader with None -> 0 | Some _ -> 1)
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
  let byz = List.init f (fun i -> i) in
  let split_brain = f >= 1 in
  let stale_replay = f >= 1 && Rng.bool rng in
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
  let leader =
    if f >= 1 && Rng.int rng 3 = 0 then
      match Rng.int rng 3 with
      | 0 -> Some Stall
      | 1 ->
          (* Serve every replica except one high-indexed honest member. *)
          let starved = n - 1 in
          Some (Serve_only (List.filter (fun i -> i <> starved) (List.init n (fun i -> i))))
      | _ -> Some (Drip 1.9) (* just under the 2 s progress watchdog *)
    else None
  in
  { byz; split_brain; stale_replay; silent_toward; leader; requests; events }

(* ------------------------------------------------------------------ *)
(* Shrinking candidates                                                *)
(* ------------------------------------------------------------------ *)

let candidates s =
  let drop_events =
    List.mapi (fun i _ -> { s with events = List.filteri (fun j _ -> j <> i) s.events }) s.events
  in
  let simpler_flags =
    (if s.stale_replay then [ { s with stale_replay = false } ] else [])
    @ (match s.leader with None -> [] | Some _ -> [ { s with leader = None } ])
    @ match s.silent_toward with [] -> [] | _ -> [ { s with silent_toward = [] } ]
  in
  let fewer_requests =
    if s.requests > 2 then [ { s with requests = Int.max 2 (s.requests / 2) } ] else []
  in
  let fewer_byz =
    match List.rev s.byz with
    | [] | [ _ ] -> [] (* keep at least one byzantine: it is the attack *)
    | _ :: keep -> [ { s with byz = List.rev keep } ]
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
  | Stall -> "stall"
  | Serve_only ids -> Printf.sprintf "serve:%s" (plus_ids ids)
  | Drip interval -> Printf.sprintf "drip:%s" (fl interval)

let leader_of_string s witness =
  match String.split_on_char ':' s with
  | [ "stall" ] -> Stall
  | [ "serve"; ids ] -> Serve_only (Witness.nats '+' ids)
  | [ "drip"; interval ] -> Drip (Witness.float interval)
  | _ -> raise (Witness.Invalid_witness witness)

let to_string t =
  String.concat " "
    (("v1" :: Printf.sprintf "byz=%s" (Witness.ids t.byz)
     :: Printf.sprintf "sb=%d" (if t.split_brain then 1 else 0)
     :: Printf.sprintf "stale=%d" (if t.stale_replay then 1 else 0)
     :: Printf.sprintf "quiet=%s" (Witness.ids t.silent_toward)
     :: Printf.sprintf "req=%d" t.requests
     ::
     (match t.leader with
     | None -> List.map string_of_event t.events
     | Some l -> Printf.sprintf "lead=%s" (string_of_leader l) :: List.map string_of_event t.events)))

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | "v1" :: byz :: sb :: stale :: quiet :: req :: rest ->
      let field = Witness.field ~witness:s in
      (* The [lead=] token is optional, so pre-leader-attack witnesses
         stay replayable verbatim. *)
      let leader, events =
        match rest with
        | tok :: tl when String.starts_with ~prefix:"lead=" tok ->
            (Some (leader_of_string (field "lead" tok) s), tl)
        | _ -> (None, rest)
      in
      {
        byz = Witness.ids_of (field "byz" byz);
        split_brain = String.equal (field "sb" sb) "1";
        stale_replay = String.equal (field "stale" stale) "1";
        silent_toward = Witness.ids_of (field "quiet" quiet);
        leader;
        requests = Witness.nat (field "req" req);
        events = List.map event_of_string events;
      }
  | _ -> raise (Witness.Invalid_witness s)

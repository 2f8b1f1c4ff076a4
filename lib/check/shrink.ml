(* Greedy delta-debugging over schedules: try structurally smaller
   candidates, keep any that still reproduces the same kind of violation
   (re-checked by a fully deterministic replay), repeat to fixpoint or
   budget exhaustion.  The result plus the engine seed is a minimal
   replayable witness. *)

let candidates (s : Schedule.t) =
  let drop_events =
    List.mapi
      (fun i _ ->
        { s with Schedule.events = List.filteri (fun j _ -> j <> i) s.Schedule.events })
      s.Schedule.events
  in
  let simpler_flags =
    (if s.Schedule.stale_replay then [ { s with Schedule.stale_replay = false } ] else [])
    @ (match s.Schedule.leader with
      | None -> []
      | Some _ -> [ { s with Schedule.leader = None } ])
    @
    match s.Schedule.silent_toward with
    | [] -> []
    | _ -> [ { s with Schedule.silent_toward = [] } ]
  in
  let fewer_requests =
    if s.Schedule.requests > 2 then
      [ { s with Schedule.requests = Int.max 2 (s.Schedule.requests / 2) } ]
    else []
  in
  let fewer_byz =
    match List.rev s.Schedule.byz with
    | [] | [ _ ] -> []  (* keep at least one byzantine: it is the attack *)
    | _ :: keep -> [ { s with Schedule.byz = List.rev keep } ]
  in
  drop_events @ simpler_flags @ fewer_byz @ fewer_requests

let greedy ~candidates ~same_kind ~replay ~budget schedule violation =
  let reruns = ref 0 in
  let reproduces s =
    incr reruns;
    match replay s with
    | Some v -> same_kind v violation
    | None -> false
  in
  let rec fixpoint s =
    if !reruns >= budget then s
    else
      let rec try_candidates = function
        | [] -> s
        | cand :: rest ->
            if !reruns >= budget then s
            else if reproduces cand then fixpoint cand
            else try_candidates rest
      in
      try_candidates (candidates s)
  in
  let shrunk = fixpoint schedule in
  (shrunk, !reruns)

let minimize ~replay ~budget schedule violation =
  greedy ~candidates ~same_kind:Oracle.same_kind ~replay ~budget schedule violation

open Repro_util

type t = { epoch : int; committees : int array array }

let derive ~seed ~epoch ~nodes ~committees =
  if nodes <= 0 || committees <= 0 || committees > nodes then
    Invariant.fail "Assignment.derive: bad sizes (nodes %d, committees %d)" nodes
      committees;
  let rng = Rng.split_named (Rng.create seed) (Printf.sprintf "epoch-%d" epoch) in
  let perm = Rng.permutation rng nodes in
  (* Chunk the permutation into k nearly-equal committees. *)
  let base = nodes / committees and extra = nodes mod committees in
  let result = Array.make committees [||] in
  let pos = ref 0 in
  for c = 0 to committees - 1 do
    let size = base + if c < extra then 1 else 0 in
    result.(c) <- Array.sub perm !pos size;
    pos := !pos + size
  done;
  { epoch; committees = result }

let committee_of t node =
  let found = ref (-1) in
  Array.iteri
    (fun c members -> if Array.exists (fun m -> m = node) members then found := c)
    t.committees;
  if !found < 0 then Invariant.fail "Assignment.committee_of: unknown node %d" node;
  !found

let transitioning ~from_ ~to_ =
  let moved = ref [] in
  (* Seed order = order of appearance in the new epoch's permutation. *)
  Array.iter
    (fun members ->
      Array.iter
        (fun node -> if committee_of from_ node <> committee_of to_ node then moved := node :: !moved)
        members)
    to_.committees;
  List.rev !moved

type step = { node : int; from_committee : int; to_committee : int }

let transition_plan ~from_ ~to_ ~batch =
  if batch <= 0 then
    Invariant.fail "Assignment.transition_plan: batch %d not positive" batch;
  let pending =
    List.map
      (fun node ->
        { node; from_committee = committee_of from_ node; to_committee = committee_of to_ node })
      (transitioning ~from_ ~to_)
  in
  (* Greedy waves: a step joins the current wave unless its source or
     destination committee already has [batch] moves in it. *)
  let rec waves acc = function
    | [] -> List.rev acc
    | remaining ->
        let load = Hashtbl.create 16 in
        let bump c = Hashtbl.replace load c (1 + Option.value (Hashtbl.find_opt load c) ~default:0) in
        let count c = Option.value (Hashtbl.find_opt load c) ~default:0 in
        let wave, rest =
          List.partition
            (fun s ->
              if count s.from_committee < batch && count s.to_committee < batch then begin
                bump s.from_committee;
                bump s.to_committee;
                true
              end
              else false)
            remaining
        in
        waves (wave :: acc) rest
  in
  waves [] pending

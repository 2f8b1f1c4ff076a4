open Repro_util

type behavior = Honest | Crashed | Byzantine

type t = { roster : behavior array }

let honest n = { roster = Array.make n Honest }

let with_byzantine rng ~n ~count =
  if count > n then Sim_error.invalid "Faults.with_byzantine: count exceeds n";
  let t = honest n in
  let ids = Rng.permutation rng n in
  for i = 0 to count - 1 do
    t.roster.(ids.(i)) <- Byzantine
  done;
  t

let with_byzantine_ids ~n ~ids =
  let t = honest n in
  List.iter
    (fun id ->
      if id < 0 || id >= n then Sim_error.invalid "Faults.with_byzantine_ids: id out of range";
      t.roster.(id) <- Byzantine)
    ids;
  t

let behavior t id = t.roster.(id)

let is_byzantine t id = t.roster.(id) = Byzantine

let is_crashed t id = t.roster.(id) = Crashed

let byzantine_ids t =
  let acc = ref [] in
  Array.iteri (fun i b -> if b = Byzantine then acc := i :: !acc) t.roster;
  List.rev !acc

let corrupt t id = t.roster.(id) <- Byzantine

let corrupt_after engine t id ~delay = Engine.schedule engine ~delay (fun () -> corrupt t id)

let byzantine_count t =
  Array.fold_left (fun acc b -> if b = Byzantine then acc + 1 else acc) 0 t.roster

let size t = Array.length t.roster

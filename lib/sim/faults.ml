open Repro_util

type t = { byzantine : bool array }

let honest n = { byzantine = Array.make n false }

let with_byzantine rng ~n ~count =
  if count > n then Sim_error.invalid "Faults.with_byzantine: count exceeds n";
  let t = honest n in
  let ids = Rng.permutation rng n in
  for i = 0 to count - 1 do
    t.byzantine.(ids.(i)) <- true
  done;
  t

let with_byzantine_ids ~n ~ids =
  let t = honest n in
  List.iter
    (fun id ->
      if id < 0 || id >= n then Sim_error.invalid "Faults.with_byzantine_ids: id out of range";
      t.byzantine.(id) <- true)
    ids;
  t

let is_byzantine t id = t.byzantine.(id)

let byzantine_ids t =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) t.byzantine;
  List.rev !acc

let corrupt_after engine t id ~delay = Engine.schedule engine ~delay (fun () -> t.byzantine.(id) <- true)

let byzantine_count t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.byzantine

let size t = Array.length t.byzantine

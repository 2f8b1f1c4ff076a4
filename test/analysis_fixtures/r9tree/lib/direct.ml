(* Reached directly: the executable names it. *)
let total xs = List.fold_left ( + ) 0 (List.map Transitive.double xs)

(* Reached transitively: only Direct names it. *)
let double x = 2 * x

(* ahl_lint: allow R9 — unreached, but the paper's argument needs it. *)
let quadruple x = 4 * x

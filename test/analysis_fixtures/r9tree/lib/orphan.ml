(* Unreached: only a test names it, and tests do not count. *)
let triple x = 3 * x

(* R1 fixture: both functor applications fire under a lib/ path outside
   lib/util/, and neither fires inside lib/util/ or outside lib/. *)

module H = Hashtbl.Make (Int)

module S = Stdlib.Hashtbl.MakeSeeded (struct
  type t = int

  let equal = Int.equal
  let seeded_hash _ x = x
end)

let size tbl = H.length tbl + S.length (S.create 1)

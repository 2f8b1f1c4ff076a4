module H = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type 'v t = 'v H.t

let create = H.create
let find_opt = H.find_opt
let replace = H.replace
let remove = H.remove
let length = H.length

let iter_sorted f t =
  (* The sort erases whatever order the buckets produced. *)
  let raw = H.fold (fun k v acc -> (k, v) :: acc) t [] in
  List.iter (fun (k, v) -> f k v) (List.sort (fun (a, _) (b, _) -> String.compare a b) raw)

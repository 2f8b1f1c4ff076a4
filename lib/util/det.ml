(* Deterministic views over hash tables.

   [Hashtbl.iter]/[Hashtbl.fold] visit buckets in an order that depends on
   the hash function, table sizing history, and resize schedule — none of
   which the simulation seed controls.  Every iteration in library code must
   go through this module (enforced by ahl_lint rule R1) so that the visit
   order is a pure function of the key set. *)

let bindings ~compare tbl =
  (* The one sanctioned raw fold: the sort below erases whatever order the
     buckets produced.  ahl_lint: allow R1 *)
  let raw = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) raw

let keys ~compare tbl = List.map fst (bindings ~compare tbl)

let iter ~compare f tbl = List.iter (fun (k, v) -> f k v) (bindings ~compare tbl)

let fold ~compare f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings ~compare tbl)

let int_pair (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let int_triple (a1, b1, c1) (a2, b2, c2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c
  else
    let c = Int.compare b1 b2 in
    if c <> 0 then c else Int.compare c1 c2

(* FNV-1a over the bytes of an explicit rendering: unlike the polymorphic
   [Hashtbl.hash] it replaces (ahl_lint rule R8), the result depends only
   on the string, never on value layout or the OCaml version.

   The 64-bit hash is kept in a native int.  Products and xors modulo
   2^64 agree with those modulo 2^63 on the low 63 bits, and the result
   keeps only the low 62, so native arithmetic gives the Int64 value
   without boxing a word per byte. *)
let fnv_basis = Int64.to_int 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3

let fnv_byte h b = (h lxor b) * fnv_prime

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* The bytes of [string_of_int n], most significant digit first. *)
let rec fnv_digits h n =
  if n < 10 then fnv_byte h (Char.code '0' + n)
  else fnv_byte (fnv_digits h (n / 10)) (Char.code '0' + (n mod 10))

let fnv_int h n =
  if n >= 0 then fnv_digits h n
  else if n = min_int then fnv_string h (string_of_int n)
  else fnv_digits (fnv_byte h (Char.code '-')) (-n)

(* Fold to a non-negative OCaml int so it slots in anywhere a
   [Hashtbl.hash] result did. *)
let fnv_finish h = h land 0x3fffffffffffffff

let stable_hash s = fnv_finish (fnv_string fnv_basis s)

let stable_hash_ints ~prefix f xs =
  let rec go h first = function
    | [] -> h
    | x :: rest ->
        let h = if first then h else fnv_byte h (Char.code ',') in
        go (fnv_int h (f x)) false rest
  in
  fnv_finish (go (fnv_string fnv_basis prefix) true xs)

(** Deterministic views over hash tables.

    [Hashtbl] iteration order is an artifact of hashing and resize history,
    so any consensus or simulation state assembled by [Hashtbl.iter]/[fold]
    is a silent nondeterminism hazard.  Library code must use these sorted
    wrappers instead; ahl_lint rule R1 bans the raw iterators under [lib/]. *)

val bindings : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key under [compare]. *)

val keys : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list
(** All keys, sorted under [compare]. *)

val iter : compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter ~compare f tbl] applies [f] to every binding in sorted key order. *)

val fold :
  compare:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** [fold ~compare f tbl init] folds over bindings in sorted key order. *)

val int_pair : int * int -> int * int -> int
(** Lexicographic comparator for [int * int] keys. *)

val int_triple : int * int * int -> int * int * int -> int
(** Lexicographic comparator for [int * int * int] keys. *)

val stable_hash : string -> int
(** FNV-1a over the bytes of an explicit rendering, folded to a
    non-negative [int].  The deterministic replacement for polymorphic
    [Hashtbl.hash] in tag derivation (ahl_lint rule R8): the result is a
    pure function of the string across runs, layouts, and OCaml
    versions. *)

val stable_hash_ints : prefix:string -> ('a -> int) -> 'a list -> int
(** [stable_hash_ints ~prefix f xs] is
    [stable_hash (prefix ^ String.concat "," (List.map (fun x -> string_of_int (f x)) xs))]
    without building that string. *)

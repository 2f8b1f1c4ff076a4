open Repro_crypto
module Str_table = Repro_util.Str_table

type value = { data : string; version : int }

(* One tuple.  [Num] is a tuple whose data is [string_of_int n]: balances
   and lock holders are kept as ints and rendered only when read as
   strings. *)
type cell = Num of { n : int; version : int } | Text of value

(* Every string key lives in exactly one table: a key with the "L_" prefix
   in [locks], filed under its suffix, any other key in [values].
   [genesis] is a deferred fill not run yet ({!defer}). *)
type t = { values : cell Str_table.t; locks : cell Str_table.t; mutable genesis : genesis option }

(* One fill shared by [sharers]: every sharer points at it until any of
   them forces it, which detaches all of them before the fill writes. *)
and genesis = { covers : string -> bool; fill : unit -> unit; sharers : t list }

let create () = { values = Str_table.create 256; locks = Str_table.create 64; genesis = None }

let force t =
  match t.genesis with
  | None -> ()
  | Some g ->
      List.iter (fun s -> s.genesis <- None) g.sharers;
      g.fill ()

(* Run the pending fill first if it writes [key] (a lock tuple's base
   key counts as the tuple's). *)
let touch t key =
  match t.genesis with Some g when g.covers key -> force t | Some _ | None -> ()

let holds_lock_in covers t =
  let found = ref false in
  Str_table.iter_sorted (fun base _ -> if covers base then found := true) t.locks;
  !found

(* A lock already held on a covered key would coexist with the pending
   fill, which [locked_by] refuses: fill at once instead. *)
let defer states ~covers fill =
  List.iter force states;
  if List.exists (holds_lock_in covers) states then fill ()
  else begin
    let g = Some { covers; fill; sharers = states } in
    List.iter (fun s -> s.genesis <- g) states
  end

let is_lock_key key = String.length key >= 2 && key.[0] = 'L' && key.[1] = '_'

let base_of_lock key = String.sub key 2 (String.length key - 2)

let find t key =
  if is_lock_key key then begin
    let base = base_of_lock key in
    touch t base;
    Str_table.find_opt t.locks base
  end
  else begin
    touch t key;
    Str_table.find_opt t.values key
  end

(* Every write reads the old version through [find] first, which forces
   the pending fill. *)
let store t key cell =
  if is_lock_key key then Str_table.replace t.locks (base_of_lock key) cell
  else Str_table.replace t.values key cell

let version_after = function
  | None -> 0
  | Some (Num { version; _ } | Text { version; _ }) -> version + 1

let render = function
  | Num { n; version } -> { data = string_of_int n; version }
  | Text v -> v

let get t key = Option.map render (find t key)

let get_data t key =
  match find t key with
  | None -> None
  | Some (Num { n; _ }) -> Some (string_of_int n)
  | Some (Text v) -> Some v.data

let put t key data = store t key (Text { data; version = version_after (find t key) })

let delete t key =
  if is_lock_key key then begin
    let base = base_of_lock key in
    touch t base;
    Str_table.remove t.locks base
  end
  else begin
    touch t key;
    Str_table.remove t.values key
  end

let mem t key = Option.is_some (find t key)

let int_of_cell = function Num { n; _ } -> Some n | Text v -> int_of_string_opt v.data

let get_int t key ~default =
  match find t key with
  | None -> default
  | Some (Num { n; _ }) -> n
  | Some (Text v) -> Option.value (int_of_string_opt v.data) ~default

let set_int t key n = store t key (Num { n; version = version_after (find t key) })

let lock_holder t key =
  touch t key;
  Option.bind (Str_table.find_opt t.locks key) int_of_cell

let set_lock t key holder =
  touch t key;
  let version = version_after (Str_table.find_opt t.locks key) in
  Str_table.replace t.locks key (Num { n = holder; version })

let clear_lock t key =
  touch t key;
  Str_table.remove t.locks key

(* The two lock-only views leave a pending fill alone: it writes no lock
   tuple, and a lock on a key it covers exists only after an access that
   forced it or before a [defer] that filled at once ([locked_by] checks
   that as it walks). *)

(* The tuple "L_" (the lock of the empty key) is too short to count. *)
let lock_count t =
  Str_table.length t.locks - Bool.to_int (Option.is_some (Str_table.find_opt t.locks ""))

let locked_by t holder =
  let acc = ref [] in
  Str_table.iter_sorted
    (fun base cell ->
      (match t.genesis with
      | Some g when g.covers base ->
          Repro_util.Invariant.fail "State.locked_by: lock on %S while its genesis is pending" base
      | Some _ | None -> ());
      match int_of_cell cell with
      | Some n when n = holder && base <> "" -> acc := base :: !acc
      | Some _ | None -> ())
    t.locks;
  List.rev !acc

let snapshot t =
  force t;
  let acc = ref [] in
  Str_table.iter_sorted (fun key cell -> acc := (key, render cell) :: !acc) t.values;
  Str_table.iter_sorted (fun base cell -> acc := ("L_" ^ base, render cell) :: !acc) t.locks;
  (* "L_" keys interleave with the others. *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let keys t = List.map fst (snapshot t)

let root t =
  let leaves =
    List.map (fun (k, v) -> Printf.sprintf "%s=%s@%d" k v.data v.version) (snapshot t)
  in
  Merkle.root leaves

let cell_of_value v =
  match int_of_string_opt v.data with
  | Some n when String.equal (string_of_int n) v.data -> Num { n; version = v.version }
  | Some _ | None -> Text v

let restore entries =
  let t = create () in
  List.iter (fun (k, v) -> store t k (cell_of_value v)) entries;
  t

let equal a b =
  let sa = snapshot a and sb = snapshot b in
  List.compare_lengths sa sb = 0
  && List.for_all2
       (fun (ka, va) (kb, vb) -> ka = kb && va.data = vb.data && va.version = vb.version)
       sa sb

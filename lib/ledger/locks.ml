type t = { state : State.t }

let create state = { state }

let lock_key key = "L_" ^ key

let is_lock_key k = String.length k > 2 && String.starts_with ~prefix:"L_" k

let holder t key =
  match State.get_data t.state (lock_key key) with
  | None -> None
  | Some data -> int_of_string_opt data

let acquire t ~txid key =
  match holder t key with
  | Some owner -> owner = txid
  | None ->
      State.put t.state (lock_key key) (string_of_int txid);
      true

let acquire_all t ~txid keys =
  let rec go newly = function
    | [] -> true
    | key :: rest -> (
        match holder t key with
        | Some owner when owner = txid -> go newly rest
        | Some _ ->
            (* Conflict: roll back only the locks this call took. *)
            List.iter (fun k -> State.delete t.state (lock_key k)) newly;
            false
        | None ->
            State.put t.state (lock_key key) (string_of_int txid);
            go (key :: newly) rest)
  in
  go [] keys

let release t ~txid key =
  match holder t key with
  | Some owner when owner = txid -> State.delete t.state (lock_key key)
  | Some _ | None -> ()

let release_all t ~txid keys = List.iter (release t ~txid) keys

let held_by t ~txid =
  List.filter_map
    (fun k ->
      if is_lock_key k then
        let base = String.sub k 2 (String.length k - 2) in
        match holder t base with Some owner when owner = txid -> Some base | _ -> None
      else None)
    (State.keys t.state)

let held_count t = List.length (List.filter is_lock_key (State.keys t.state))

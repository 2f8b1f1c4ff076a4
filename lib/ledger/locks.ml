type t = { state : State.t }

let create state = { state }

let holder t key = State.lock_holder t.state key

let acquire t ~txid key =
  match holder t key with
  | Some owner -> owner = txid
  | None ->
      State.set_lock t.state key txid;
      true

let acquire_all t ~txid keys =
  let rec go newly = function
    | [] -> true
    | key :: rest -> (
        match holder t key with
        | Some owner when owner = txid -> go newly rest
        | Some _ ->
            (* Conflict: roll back only the locks this call took. *)
            List.iter (State.clear_lock t.state) newly;
            false
        | None ->
            State.set_lock t.state key txid;
            go (key :: newly) rest)
  in
  go [] keys

let release t ~txid key =
  match holder t key with
  | Some owner when owner = txid -> State.clear_lock t.state key
  | Some _ | None -> ()

let release_all t ~txid keys = List.iter (release t ~txid) keys

let held_by t ~txid = State.locked_by t.state txid

let held_count t = State.lock_count t.state

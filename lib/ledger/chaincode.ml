type invocation = { fn : string; args : string list }

type response = Success of string | Failure of string

type t = State.t -> txid:int -> invocation -> response

let define handler = handler

let invoke t state ~txid inv = t state ~txid inv

let op_to_args op =
  match op with
  | Tx.Put { key; value } -> [ "put"; key; value ]
  | Tx.Get { key } -> [ "get"; key ]
  | Tx.Debit { account; amount } -> [ "debit"; account; string_of_int amount ]
  | Tx.Credit { account; amount } -> [ "credit"; account; string_of_int amount ]
  | Tx.Merge { key; delta = Tx.Add n } -> [ "madd"; key; string_of_int n ]
  | Tx.Merge { key; delta = Tx.Maxi n } -> [ "mmax"; key; string_of_int n ]
  | Tx.Merge { key; delta = Tx.Union elts } ->
      (* Length-prefixed so the flat argument stream stays parseable. *)
      "munion" :: key :: string_of_int (List.length elts) :: elts

let functions_of_ops ~txid ~phase ops =
  let fn =
    match phase with `Prepare -> "prepare" | `Commit -> "commit" | `Abort -> "abort"
  in
  { fn; args = string_of_int txid :: List.concat_map op_to_args ops }

type arg = Param of int | Lit of string

type amount = Amount_param of int | Amount_lit of int

type stmt =
  | Transfer of { from_ : arg; to_ : arg; amount : amount }
  | Deposit of { to_ : arg; amount : amount }
  | Withdraw of { from_ : arg; amount : amount }
  | Set of { key : arg; value : arg }

type t = { name : string; arity : int; body : stmt list }

let check_arg ~arity = function
  | Param i when i < 0 || i >= arity -> Repro_util.Invariant.fail "Contract.define: parameter out of range"
  | Param _ | Lit _ -> ()

let check_amount ~arity = function
  | Amount_param i when i < 0 || i >= arity ->
      Repro_util.Invariant.fail "Contract.define: parameter out of range"
  | Amount_param _ | Amount_lit _ -> ()

let define ~name ~arity body =
  if arity < 0 then Repro_util.Invariant.fail "Contract.define: negative arity";
  List.iter
    (fun stmt ->
      match stmt with
      | Transfer { from_; to_; amount } ->
          check_arg ~arity from_;
          check_arg ~arity to_;
          check_amount ~arity amount
      | Deposit { to_; amount } ->
          check_arg ~arity to_;
          check_amount ~arity amount
      | Withdraw { from_; amount } ->
          check_arg ~arity from_;
          check_amount ~arity amount
      | Set { key; value } ->
          check_arg ~arity key;
          check_arg ~arity value)
    body;
  { name; arity; body }

let subst args = function Param i -> List.nth args i | Lit s -> s

let subst_amount args = function
  | Amount_lit v -> Ok v
  | Amount_param i -> (
      match int_of_string_opt (List.nth args i) with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "argument %d is not an integer" i))

let compile t ~args =
  if List.length args <> t.arity then
    Error (Printf.sprintf "%s expects %d arguments" t.name t.arity)
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | stmt :: rest -> (
          match stmt with
          | Transfer { from_; to_; amount } -> (
              match subst_amount args amount with
              | Error e -> Error e
              | Ok amount ->
                  go
                    (Tx.Credit { account = subst args to_; amount }
                     :: Tx.Debit { account = subst args from_; amount }
                     :: acc)
                    rest)
          | Deposit { to_; amount } -> (
              match subst_amount args amount with
              | Error e -> Error e
              | Ok amount -> go (Tx.Credit { account = subst args to_; amount } :: acc) rest)
          | Withdraw { from_; amount } -> (
              match subst_amount args amount with
              | Error e -> Error e
              | Ok amount -> go (Tx.Debit { account = subst args from_; amount } :: acc) rest)
          | Set { key; value } ->
              go (Tx.Put { key = subst args key; value = subst args value } :: acc) rest)
    in
    go [] t.body
  end

let analyze t ~shards ~args =
  match compile t ~args with
  | Error e -> Repro_util.Invariant.fail "Contract.analyze: %s" e
  | Ok ops -> (
      let tx = Tx.make ~txid:0 ops in
      match Tx.shards_touched ~shards tx with
      | [ s ] -> `Single s
      | many -> `Cross many)

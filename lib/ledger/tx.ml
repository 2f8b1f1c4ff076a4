open Repro_crypto

type delta =
  | Add of int
  | Maxi of int
  | Union of string list

type op =
  | Put of { key : string; value : string }
  | Get of { key : string }
  | Debit of { account : string; amount : int }
  | Credit of { account : string; amount : int }
  | Merge of { key : string; delta : delta }

type t = {
  txid : int;
  ops : op list;
  client : int;
  submitted : float;
  mutable placed_for : int;
  mutable placed : (int * op list) list;
}

(* [placed_for = 0] marks an empty memo: no shard count is zero. *)
let make ~txid ?(client = 0) ?(submitted = 0.0) ops =
  { txid; ops; client; submitted; placed_for = 0; placed = [] }

let key_of_op = function
  | Put { key; _ } | Get { key } | Merge { key; _ } -> key
  | Debit { account; _ } | Credit { account; _ } -> account

let keys t = List.sort_uniq String.compare (List.map key_of_op t.ops)

let shard_of_key ~shards key =
  if shards <= 0 then Repro_util.Invariant.fail "Tx.shard_of_key: shards must be positive";
  (* [v mod 1 = 0] for every digest: one shard needs no hash. *)
  if shards = 1 then 0
  else Sha256.first_word key mod shards

let group_by_shard ~shard_of ~key items =
  (* One lookup per item; the stable sort keeps each shard's items in their
     original order. *)
  let tagged =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun item -> (shard_of (key item), item)) items)
  in
  let rec group = function
    | [] -> []
    | (shard, item) :: rest ->
        let rec take acc = function
          | (s, item) :: rest when Int.equal s shard -> take (item :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let items, rest = take [ item ] rest in
        (shard, items) :: group rest
  in
  group tagged

let placement ?shard_of ~shards t =
  if not (Int.equal t.placed_for shards) then begin
    let shard_of = match shard_of with Some f -> f | None -> shard_of_key ~shards in
    t.placed <- group_by_shard ~shard_of ~key:key_of_op t.ops;
    t.placed_for <- shards
  end;
  t.placed

let on_shard placement shard =
  match List.find_opt (fun (s, _) -> Int.equal s shard) placement with
  | Some (_, items) -> items
  | None -> []

let shards_touched ~shards t = List.map fst (placement ~shards t)

let is_cross_shard ~shards t = List.length (shards_touched ~shards t) > 1

let ops_for_shard ~shards t shard = on_shard (placement ~shards t) shard

let pp_delta fmt = function
  | Add n -> Format.fprintf fmt "add %d" n
  | Maxi n -> Format.fprintf fmt "max %d" n
  | Union elts -> Format.fprintf fmt "union{%s}" (String.concat "," elts)

let pp_op fmt = function
  | Put { key; value } -> Format.fprintf fmt "put(%s=%s)" key value
  | Get { key } -> Format.fprintf fmt "get(%s)" key
  | Debit { account; amount } -> Format.fprintf fmt "debit(%s,%d)" account amount
  | Credit { account; amount } -> Format.fprintf fmt "credit(%s,%d)" account amount
  | Merge { key; delta } -> Format.fprintf fmt "merge(%s,%a)" key pp_delta delta

(* Canonical encoding: header line then one op per line.  Values are
   percent-escaped so newlines and pipes in user data cannot break
   framing. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '|' -> Buffer.add_string buf "%7c"
      | '\n' -> Buffer.add_string buf "%0a"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  let ok = ref true in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       (match String.sub s (!i + 1) 2 with
       | "25" -> Buffer.add_char buf '%'
       | "7c" -> Buffer.add_char buf '|'
       | "0a" -> Buffer.add_char buf '\n'
       | _ -> ok := false);
       i := !i + 3
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  if !ok then Some (Buffer.contents buf) else None

let serialize t =
  let op_line = function
    | Put { key; value } -> Printf.sprintf "put|%s|%s" (escape key) (escape value)
    | Get { key } -> Printf.sprintf "get|%s" (escape key)
    | Debit { account; amount } -> Printf.sprintf "debit|%s|%d" (escape account) amount
    | Credit { account; amount } -> Printf.sprintf "credit|%s|%d" (escape account) amount
    | Merge { key; delta = Add n } -> Printf.sprintf "merge|%s|add|%d" (escape key) n
    | Merge { key; delta = Maxi n } -> Printf.sprintf "merge|%s|max|%d" (escape key) n
    | Merge { key; delta = Union elts } ->
        String.concat "|" ("merge" :: escape key :: "union" :: List.map escape elts)
  in
  String.concat "\n"
    (Printf.sprintf "tx|%d|%d|%.6f" t.txid t.client t.submitted :: List.map op_line t.ops)

let deserialize s =
  match String.split_on_char '\n' s with
  | [] -> Error "empty"
  | header :: op_lines -> (
      match String.split_on_char '|' header with
      | [ "tx"; txid; client; submitted ] -> (
          match (int_of_string_opt txid, int_of_string_opt client, float_of_string_opt submitted)
          with
          | Some txid, Some client, Some submitted -> (
              let parse_op line =
                match String.split_on_char '|' line with
                | [ "put"; key; value ] -> (
                    match (unescape key, unescape value) with
                    | Some key, Some value -> Ok (Put { key; value })
                    | _ -> Error "bad escape")
                | [ "get"; key ] -> (
                    match unescape key with
                    | Some key -> Ok (Get { key })
                    | None -> Error "bad escape")
                | [ "debit"; account; amount ] -> (
                    match (unescape account, int_of_string_opt amount) with
                    | Some account, Some amount -> Ok (Debit { account; amount })
                    | _ -> Error "bad debit")
                | [ "credit"; account; amount ] -> (
                    match (unescape account, int_of_string_opt amount) with
                    | Some account, Some amount -> Ok (Credit { account; amount })
                    | _ -> Error "bad credit")
                | [ "merge"; key; "add"; n ] -> (
                    match (unescape key, int_of_string_opt n) with
                    | Some key, Some n -> Ok (Merge { key; delta = Add n })
                    | _ -> Error "bad merge add")
                | [ "merge"; key; "max"; n ] -> (
                    match (unescape key, int_of_string_opt n) with
                    | Some key, Some n -> Ok (Merge { key; delta = Maxi n })
                    | _ -> Error "bad merge max")
                | "merge" :: key :: "union" :: elts -> (
                    let unescaped = List.filter_map unescape elts in
                    match unescape key with
                    | Some key when List.length unescaped = List.length elts ->
                        Ok (Merge { key; delta = Union unescaped })
                    | _ -> Error "bad merge union")
                | _ -> Error ("bad op line: " ^ line)
              in
              let rec go acc = function
                | [] -> Ok (List.rev acc)
                | line :: rest -> (
                    match parse_op line with Ok op -> go (op :: acc) rest | Error e -> Error e)
              in
              match go [] op_lines with
              | Ok ops -> Ok (make ~txid ~client ~submitted ops)
              | Error e -> Error e)
          | _ -> Error "bad header numbers")
      | _ -> Error "bad header")

let digest t = Sha256.digest_string (serialize t)

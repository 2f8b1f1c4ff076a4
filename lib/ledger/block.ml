open Repro_crypto

type header = {
  height : int;
  parent : Sha256.digest;
  tx_root : Sha256.digest;
  state_root : Sha256.digest;
  timestamp : float;
}

(* A block's header is fixed by what [next] was given, but its two
   digests are derived only when something reads them.  [Pending] keeps
   the inputs — including the body as appended, so a later edit of a
   copy's [txs] cannot move the committed [tx_root]; the cell is shared
   by every copy of the block. *)
type seal =
  | Pending of { parent : t; body : string list; state_root : Sha256.digest; timestamp : float }
  | Sealed of header

and link = seal ref

and t = { height : int; txs : string list; link : link }

let zero = Sha256.digest_string "genesis-parent"

let header_bytes (h : header) =
  Printf.sprintf "%d|%s|%s|%s|%.6f" h.height
    (Sha256.to_hex h.parent) (Sha256.to_hex h.tx_root) (Sha256.to_hex h.state_root) h.timestamp

let hash_header h = Sha256.digest_string (header_bytes h)

(* Seal the unsealed run ending at [b], oldest first, each header taken
   over its sealed parent's: a fold, not one stack frame per block. *)
let header b =
  match !(b.link) with
  | Sealed h -> h
  | Pending _ ->
      let rec unsealed run b =
        match !(b.link) with
        | Sealed h -> (h, run)
        | Pending { parent; _ } -> unsealed (b :: run) parent
      in
      let sealed, run = unsealed [] b in
      List.fold_left
        (fun (parent : header) b ->
          match !(b.link) with
          | Sealed h -> h
          | Pending { body; state_root; timestamp; _ } ->
              let h =
                {
                  height = parent.height + 1;
                  parent = hash_header parent;
                  tx_root = Merkle.root body;
                  state_root;
                  timestamp;
                }
              in
              b.link := Sealed h;
              h)
        sealed run

let hash b = hash_header (header b)

let genesis state_root =
  let h = { height = 0; parent = zero; tx_root = Merkle.root []; state_root; timestamp = 0.0 } in
  { height = 0; txs = []; link = ref (Sealed h) }

let next ~parent ~txs ~state_root ~timestamp =
  {
    height = parent.height + 1;
    txs;
    link = ref (Pending { parent; body = txs; state_root; timestamp });
  }

let verify_link ~parent ~child =
  let h = header child in
  h.height = child.height
  && h.height = (header parent).height + 1
  && Sha256.equal h.parent (hash parent)
  && Sha256.equal h.tx_root (Merkle.root child.txs)

let tx_proof t i = Merkle.prove t.txs i

let verify_tx t ~tx proof = Merkle.verify ~root:(header t).tx_root ~leaf:tx proof

module Chain = struct
  type chain = { mutable blocks : t list (* newest first *) }

  let create ~state_root = { blocks = [ genesis state_root ] }

  let tip c = List.hd c.blocks

  let append c ~txs ~state_root ~timestamp =
    let block = next ~parent:(tip c) ~txs ~state_root ~timestamp in
    c.blocks <- block :: c.blocks;
    block

  let height c = (tip c).height

  let at c h = List.find_opt (fun b -> b.height = h) c.blocks

  let forge_txs c h txs =
    c.blocks <- List.map (fun b -> if b.height = h then { b with txs } else b) c.blocks

  let validate c =
    let rec walk = function
      | [] | [ _ ] -> true
      | child :: (parent :: _ as rest) -> verify_link ~parent ~child && walk rest
    in
    walk c.blocks
end

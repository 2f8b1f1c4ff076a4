(** Blocks and the hash-chained ledger.

    Each committee maintains one chain over its shard.  Headers commit to
    the transaction batch (Merkle root over serialized transactions) and
    to the post-state root, and chain by SHA-256 parent pointers.

    Headers are sealed on read: {!next} records a block's inputs, and its
    two digests ([tx_root] and the parent pointer) are computed the first
    time anything reads the header — {!header}, {!hash}, {!verify_link},
    {!verify_tx}, {!Chain.validate} — then kept.  Every digest is the one
    an eager computation would give; a simulation run that never reads a
    header pays no SHA-256 for it (DESIGN §19). *)

type header = {
  height : int;
  parent : Repro_crypto.Sha256.digest;
  tx_root : Repro_crypto.Sha256.digest;
  state_root : Repro_crypto.Sha256.digest;
  timestamp : float;
}

type link
(** The header, or the inputs it is sealed from.  Shared by every copy of
    a block, so a copy with other [txs] still carries the original
    header. *)

type t = { height : int; txs : string list (* serialized transactions *); link : link }

val header : t -> header
(** The sealed header.  Sealing runs oldest-unsealed-first in a loop, so
    a long unread chain costs no stack depth. *)

val hash : t -> Repro_crypto.Sha256.digest
(** SHA-256 over the canonical header rendering. *)

val genesis : Repro_crypto.Sha256.digest -> t
(** [genesis state_root] at height 0 with a zero parent. *)

val next :
  parent:t -> txs:string list -> state_root:Repro_crypto.Sha256.digest -> timestamp:float -> t
(** The block after [parent].  Its header commits to [txs] as given here,
    whatever a copy's [txs] later says. *)

val verify_link : parent:t -> child:t -> bool
(** Heights increment, the child's parent pointer matches, and the
    child's [txs] hash to its header's [tx_root]. *)

val tx_proof : t -> int -> Repro_crypto.Merkle.proof
(** Inclusion proof for transaction [i] against the header's [tx_root]. *)

val verify_tx : t -> tx:string -> Repro_crypto.Merkle.proof -> bool

(** Append-only chain with integrity checking. *)
module Chain : sig
  type chain

  val create : state_root:Repro_crypto.Sha256.digest -> chain

  val append : chain -> txs:string list -> state_root:Repro_crypto.Sha256.digest -> timestamp:float -> t
  (** Records the block; its header is sealed on first read. *)

  val tip : chain -> t

  val height : chain -> int

  val at : chain -> int -> t option

  val forge_txs : chain -> int -> string list -> unit
  (** [forge_txs c h txs] replaces the stored body of the block at height
      [h] and leaves its header alone: the storage tampering {!validate}
      must catch, whether or not the header was sealed before. *)

  val validate : chain -> bool
  (** Recheck every link and every tx root; the integrity test for
      rollback/tampering scenarios. *)
end

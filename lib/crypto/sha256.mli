(** Pure-OCaml SHA-256 (FIPS 180-4).

    Used wherever the reproduction needs a *real* collision-resistant hash:
    block hash pointers, Merkle roots, enclave measurements, and the
    signature simulation's message digests.  Protocol-message authentication
    in the simulator deliberately does not hash full payloads (its cost is
    charged to the simulated clock instead); see {!Sig_model}. *)

type digest = private string
(** 32 raw bytes. *)

val digest_string : string -> digest

val digest_concat : string list -> digest
(** Digest of the concatenation, without building the intermediate string. *)

val first_word : string -> int
(** The first four bytes of [digest_string s] as a big-endian unsigned
    int, without building the digest: key→shard routing's hash. *)

val to_hex : digest -> string

exception Not_a_digest of int
(** A raw string of the wrong length was offered as a digest; carries the
    actual length. *)

val of_raw_exn : string -> digest
(** Wraps a 32-byte string; raises {!Not_a_digest} otherwise. *)

val to_raw : digest -> string

val equal : digest -> digest -> bool

val hmac : key:string -> string -> digest
(** HMAC-SHA256 (RFC 2104); the basis of simulated signing and sealing. *)

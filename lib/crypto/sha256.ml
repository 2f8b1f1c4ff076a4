type digest = string

(* The kernel works on native [int]s holding 32-bit words, masked back to
   32 bits after every addition: an [int32] kernel would box each word it
   writes to an array or a ref. *)

(* Round constants: first 32 bits of the fractional parts of the cube roots
   of the first 64 primes. *)
let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
    0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
    0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
    0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
    0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
    0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
    0xc67178f2;
  |]

type state = {
  h : int array; (* 8 words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
  w : int array; (* 64-word message schedule, reused across blocks *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
        0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let mask = 0xFFFFFFFF

let ( >>> ) x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* The message schedule is loaded by input-specific loaders so whole
   blocks are consumed in place — directly from the caller's string or
   from the partial-block buffer — without an intermediate copy. *)

let load_block_bytes st block offset =
  for i = 0 to 15 do
    st.w.(i) <- Int32.to_int (Bytes.get_int32_be block (offset + (4 * i))) land mask
  done

let load_block_string st s offset =
  for i = 0 to 15 do
    st.w.(i) <- Int32.to_int (String.get_int32_be s (offset + (4 * i))) land mask
  done

(* Rounds over the already-loaded schedule w.(0..15). *)
let compress_rounds st =
  let w = st.w in
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = (x >>> 7) lxor (x >>> 18) lxor (x lsr 3) in
    let s1 = (y >>> 17) lxor (y >>> 19) lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let hs = st.h in
  let a = ref hs.(0) and b = ref hs.(1) and c = ref hs.(2) and d = ref hs.(3) in
  let e = ref hs.(4) and f = ref hs.(5) and g = ref hs.(6) and h = ref hs.(7) in
  for i = 0 to 63 do
    let e_ = !e and a_ = !a in
    let s1 = (e_ >>> 6) lxor (e_ >>> 11) lxor (e_ >>> 25) in
    let ch = (e_ land !f) lxor (lnot e_ land !g) in
    let temp1 = !h + s1 + ch + k.(i) + w.(i) in
    let s0 = (a_ >>> 2) lxor (a_ >>> 13) lxor (a_ >>> 22) in
    let maj = (a_ land !b) lxor (a_ land !c) lxor (!b land !c) in
    h := !g;
    g := !f;
    f := e_;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := a_;
    a := (temp1 + s0 + maj) land mask
  done;
  hs.(0) <- (hs.(0) + !a) land mask;
  hs.(1) <- (hs.(1) + !b) land mask;
  hs.(2) <- (hs.(2) + !c) land mask;
  hs.(3) <- (hs.(3) + !d) land mask;
  hs.(4) <- (hs.(4) + !e) land mask;
  hs.(5) <- (hs.(5) + !f) land mask;
  hs.(6) <- (hs.(6) + !g) land mask;
  hs.(7) <- (hs.(7) + !h) land mask

let feed st s =
  let len = String.length s in
  st.total <- st.total + len;
  let pos = ref 0 in
  (* Fill a partial block first. *)
  if st.buf_len > 0 then begin
    let need = 64 - st.buf_len in
    let take = if need < len then need else len in
    Bytes.blit_string s 0 st.buf st.buf_len take;
    st.buf_len <- st.buf_len + take;
    pos := take;
    if st.buf_len = 64 then begin
      load_block_bytes st st.buf 0;
      compress_rounds st;
      st.buf_len <- 0
    end
  end;
  (* Whole blocks in place from the input — no staging copy. *)
  while len - !pos >= 64 do
    load_block_string st s !pos;
    compress_rounds st;
    pos := !pos + 64
  done;
  (* Stash the tail. *)
  if !pos < len then begin
    Bytes.blit_string s !pos st.buf st.buf_len (len - !pos);
    st.buf_len <- st.buf_len + (len - !pos)
  end

(* A 64-byte block fed without growing the buffer: HMAC's key pads are
   exactly one block, so they compress directly. *)
let feed_block st block =
  st.total <- st.total + 64;
  load_block_bytes st block 0;
  compress_rounds st

let finish st =
  (* Pad in place inside the block buffer: append 0x80, zeros, and the
     64-bit big-endian length — no intermediate tail string. *)
  let b = st.buf in
  let len = st.buf_len in
  Bytes.set b len '\x80';
  if len >= 56 then begin
    (* No room for the length in this block: close it out and pad a
       second, all-zero block. *)
    Bytes.fill b (len + 1) (64 - len - 1) '\x00';
    load_block_bytes st b 0;
    compress_rounds st;
    Bytes.fill b 0 56 '\x00'
  end
  else Bytes.fill b (len + 1) (56 - len - 1) '\x00';
  Bytes.set_int64_be b 56 (Int64.mul (Int64.of_int st.total) 8L);
  load_block_bytes st b 0;
  compress_rounds st;
  st.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int st.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let st = init () in
  feed st s;
  finish st

let digest_concat parts =
  let st = init () in
  List.iter (feed st) parts;
  finish st

(* [digest_string]'s first word for a message that pads into one block
   (at most 55 bytes), with the 16-word schedule rolled in place in an
   array literal: no C allocation call, no block buffer, no digest
   string.  Longer messages take the general path. *)
let first_word s =
  let len = String.length s in
  if len > 55 then Int32.to_int (String.get_int32_be (digest_string s) 0) land mask
  else begin
    let w = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |] in
    let whole = len lsr 2 in
    for i = 0 to whole - 1 do
      let p = 4 * i in
      Array.unsafe_set w i
        ((Char.code (String.unsafe_get s p) lsl 24)
        lor (Char.code (String.unsafe_get s (p + 1)) lsl 16)
        lor (Char.code (String.unsafe_get s (p + 2)) lsl 8)
        lor Char.code (String.unsafe_get s (p + 3)))
    done;
    (* The word the 0x80 terminator lands in; words up to 14 stay zero
       and word 15 is the bit length (under 2^32 here). *)
    let tail = ref (0x80 lsl (24 - (8 * (len land 3)))) in
    for j = 0 to (len land 3) - 1 do
      tail := !tail lor (Char.code (String.unsafe_get s ((4 * whole) + j)) lsl (24 - (8 * j)))
    done;
    Array.unsafe_set w whole !tail;
    Array.unsafe_set w 15 (len * 8);
    let a = ref 0x6a09e667 and b = ref 0xbb67ae85 and c = ref 0x3c6ef372 in
    let d = ref 0xa54ff53a and e = ref 0x510e527f and f = ref 0x9b05688c in
    let g = ref 0x1f83d9ab and h = ref 0x5be0cd19 in
    for i = 0 to 63 do
      let wi =
        if i < 16 then Array.unsafe_get w i
        else begin
          let x = Array.unsafe_get w ((i - 15) land 15) and y = Array.unsafe_get w ((i - 2) land 15) in
          let s0 = (x >>> 7) lxor (x >>> 18) lxor (x lsr 3) in
          let s1 = (y >>> 17) lxor (y >>> 19) lxor (y lsr 10) in
          let v =
            (Array.unsafe_get w (i land 15) + s0 + Array.unsafe_get w ((i - 7) land 15) + s1)
            land mask
          in
          Array.unsafe_set w (i land 15) v;
          v
        end
      in
      let e_ = !e and a_ = !a in
      let s1 = (e_ >>> 6) lxor (e_ >>> 11) lxor (e_ >>> 25) in
      let ch = (e_ land !f) lxor (lnot e_ land !g) in
      let temp1 = !h + s1 + ch + Array.unsafe_get k i + wi in
      let s0 = (a_ >>> 2) lxor (a_ >>> 13) lxor (a_ >>> 22) in
      let maj = (a_ land !b) lxor (a_ land !c) lxor (!b land !c) in
      h := !g;
      g := !f;
      f := e_;
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := a_;
      a := (temp1 + s0 + maj) land mask
    done;
    (0x6a09e667 + !a) land mask
  end

let to_hex d =
  let hex = "0123456789abcdef" in
  let out = Bytes.create 64 in
  for i = 0 to 31 do
    let byte = Char.code d.[i] in
    Bytes.set out (2 * i) hex.[byte lsr 4];
    Bytes.set out ((2 * i) + 1) hex.[byte land 0xF]
  done;
  Bytes.unsafe_to_string out

exception Not_a_digest of int

let of_raw_exn s =
  if String.length s <> 32 then raise (Not_a_digest (String.length s));
  s

let to_raw d = d

let equal = String.equal

let hmac ~key msg =
  let block = 64 in
  let key = if String.length key > block then (digest_string key : digest :> string) else key in
  (* Both pads in one pass over the key; each is exactly one compression
     block, fed in place. *)
  let ipad = Bytes.make block '\x36' and opad = Bytes.make block '\x5c' in
  for i = 0 to String.length key - 1 do
    let k = Char.code key.[i] in
    Bytes.set ipad i (Char.chr (k lxor 0x36));
    Bytes.set opad i (Char.chr (k lxor 0x5c))
  done;
  let st = init () in
  feed_block st ipad;
  feed st msg;
  let inner = finish st in
  let st = init () in
  feed_block st opad;
  feed st (inner :> string);
  finish st

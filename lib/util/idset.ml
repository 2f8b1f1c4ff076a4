type t = { mutable bits : Bytes.t }

(* 1024 ids before the first growth. *)
let initial_bytes = 128

let create () = { bits = Bytes.make initial_bytes '\000' }

let check id = if id < 0 then Invariant.fail "Idset: negative id %d" id

let mem t id =
  check id;
  let i = id lsr 3 in
  i < Bytes.length t.bits
  && Char.code (Bytes.unsafe_get t.bits i) land (1 lsl (id land 7)) <> 0

let add t id =
  check id;
  let i = id lsr 3 in
  let len = Bytes.length t.bits in
  if i >= len then begin
    let bits = Bytes.make (Int.max (2 * len) (i + 1)) '\000' in
    Bytes.blit t.bits 0 bits 0 len;
    t.bits <- bits
  end;
  let byte = Char.code (Bytes.unsafe_get t.bits i) lor (1 lsl (id land 7)) in
  Bytes.unsafe_set t.bits i (Char.unsafe_chr byte)

let clear t = t.bits <- Bytes.make initial_bytes '\000'

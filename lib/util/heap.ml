(* Struct-of-arrays binary min-heap: slot [i] is the triple
   ([keys.(i)], [seqs.(i)], [vals.(i)]).  Keys sit unboxed in a
   [floatarray] and sifting moves a hole rather than swapping, so once the
   arrays have grown neither [push] nor [take_min] allocates. *)
type 'a t = {
  mutable keys : floatarray;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

(* Filler for value slots outside [0, len): a popped value must not stay
   reachable from the heap until a later push overwrites its slot.  It is
   an immediate, so the GC never follows it and [Array.make] never builds
   a flat float array from it; no code reads a slot at or above [len]. *)
let vacant () : 'a = Obj.magic 0

let create () = { keys = Float.Array.create 0; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }

let size h = h.len

let is_empty h = h.len = 0

(* ([ka], [sa]) sorts before ([kb], [sb]) on key, then on insertion seq. *)
let before (ka : float) (sa : int) kb sb = ka < kb || (ka = kb && sa < sb)

(* Double the capacity of a full heap. *)
let grow h =
  let ncap = if h.len = 0 then 16 else h.len * 2 in
  let keys = Float.Array.create ncap in
  Float.Array.blit h.keys 0 keys 0 h.len;
  let seqs = Array.make ncap 0 in
  Array.blit h.seqs 0 seqs 0 h.len;
  let vals = Array.make ncap (vacant ()) in
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* Move slot [src] into slot [dst]. *)
let[@inline] move h ~src ~dst =
  Float.Array.unsafe_set h.keys dst (Float.Array.unsafe_get h.keys src);
  Array.unsafe_set h.seqs dst (Array.unsafe_get h.seqs src);
  Array.unsafe_set h.vals dst (Array.unsafe_get h.vals src)

(* Inlined, so [take_min] stores its unboxed key without boxing it. *)
let[@inline] place h i key seq value =
  Float.Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.vals i value

let push h key value =
  if h.len = Array.length h.seqs then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* Sift the hole up from the new last slot.  [seq] is the largest in the
     heap, so the new entry passes a parent only on a strictly smaller key. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < Float.Array.unsafe_get h.keys parent then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  place h !i key seq value

let min_key h =
  if h.len = 0 then Invariant.fail "Heap.min_key: empty heap";
  Float.Array.unsafe_get h.keys 0

let take_min h =
  if h.len = 0 then Invariant.fail "Heap.take_min: empty heap";
  let top = Array.unsafe_get h.vals 0 in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    (* Sift the hole down from the root, then drop the old last entry in. *)
    let key = Float.Array.unsafe_get h.keys last and seq = Array.unsafe_get h.seqs last in
    let value = Array.unsafe_get h.vals last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && before (Float.Array.unsafe_get h.keys r) (Array.unsafe_get h.seqs r)
                 (Float.Array.unsafe_get h.keys l) (Array.unsafe_get h.seqs l)
          then r
          else l
        in
        if before (Float.Array.unsafe_get h.keys c) (Array.unsafe_get h.seqs c) key seq then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place h !i key seq value
  end;
  Array.unsafe_set h.vals last (vacant ());
  top

let pop h =
  if h.len = 0 then None
  else begin
    let key = Float.Array.unsafe_get h.keys 0 in
    Some (key, take_min h)
  end

let peek_key h = if h.len = 0 then None else Some (Float.Array.unsafe_get h.keys 0)

(* Binary min-heap over a slot pool.  Heap position [i] holds the triple
   ([keys.(i)], [seqs.(i)], [slots.(i)]): the key unboxed in a
   [floatarray], the insertion seq and the index of the pool slot that
   holds the value.  A value is stored into [pool] once on push and read
   once on pop; sifts move only the three unboxed words, so no sift level
   goes through the write barrier.  Sifting moves a hole rather than
   swapping, and once the arrays have grown neither [push] nor [take_min]
   allocates.

   The free slots need no list of their own: [slots.(len .. cap-1)] hold
   exactly the pool slots no entry uses.  A push takes its slot from
   [slots.(len)] before the sift can overwrite it, and a removal files
   the freed slot at the position the heap just gave up. *)
type 'a t = {
  mutable keys : floatarray;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pool : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

(* Filler for vacant pool slots: a popped value must not stay reachable
   from the heap until a later push reuses its slot.  It is an immediate,
   so the GC never follows it and [Array.make] never builds a flat float
   array from it; no code reads a vacant slot. *)
let vacant () : 'a = Obj.magic 0

let create () =
  {
    keys = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    pool = [||];
    len = 0;
    next_seq = 0;
  }

let size h = h.len

let is_empty h = h.len = 0

(* ([ka], [sa]) sorts before ([kb], [sb]) on key, then on insertion seq. *)
let before (ka : float) (sa : int) kb sb = ka < kb || (ka = kb && sa < sb)

(* Double the capacity of a full heap.  Every old slot is in use, so the
   new positions [cap .. ncap-1] get the new slots [cap .. ncap-1]. *)
let grow h =
  let cap = h.len in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let keys = Float.Array.create ncap in
  Float.Array.blit h.keys 0 keys 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit h.seqs 0 seqs 0 cap;
  let slots = Array.init ncap Fun.id in
  Array.blit h.slots 0 slots 0 cap;
  let pool = Array.make ncap (vacant ()) in
  Array.blit h.pool 0 pool 0 cap;
  h.keys <- keys;
  h.seqs <- seqs;
  h.slots <- slots;
  h.pool <- pool

(* Move position [src] into position [dst]: three unboxed stores. *)
let[@inline] move h ~src ~dst =
  Float.Array.unsafe_set h.keys dst (Float.Array.unsafe_get h.keys src);
  Array.unsafe_set h.seqs dst (Array.unsafe_get h.seqs src);
  Array.unsafe_set h.slots dst (Array.unsafe_get h.slots src)

(* Inlined, so [take_min] stores its unboxed key without boxing it. *)
let[@inline] place h i key seq slot =
  Float.Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i slot

let push h key value =
  if h.len = Array.length h.seqs then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let slot = Array.unsafe_get h.slots h.len in
  Array.unsafe_set h.pool slot value;
  (* Sift the hole up from the new last position.  [seq] is the largest in
     the heap, so the new entry passes a parent only on a strictly smaller
     key. *)
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
  place h !i key seq slot

let min_key h =
  if h.len = 0 then Invariant.fail "Heap.min_key: empty heap";
  Float.Array.unsafe_get h.keys 0

let take_min h =
  if h.len = 0 then Invariant.fail "Heap.take_min: empty heap";
  let top = Array.unsafe_get h.slots 0 in
  let value = Array.unsafe_get h.pool top in
  Array.unsafe_set h.pool top (vacant ());
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    (* Sift the hole down from the root, then drop the old last entry in. *)
    let key = Float.Array.unsafe_get h.keys last and seq = Array.unsafe_get h.seqs last in
    let slot = Array.unsafe_get h.slots last in
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
    place h !i key seq slot
  end;
  Array.unsafe_set h.slots last top;
  value

let pop h =
  if h.len = 0 then None
  else begin
    let key = Float.Array.unsafe_get h.keys 0 in
    Some (key, take_min h)
  end

let peek_key h = if h.len = 0 then None else Some (Float.Array.unsafe_get h.keys 0)

type channel = Request | Consensus

type mode =
  | Shared of int
  | Split of { request_cap : int; consensus_cap : int }

(* A FIFO ring over a power-of-two array that doubles up to [cap]: entry
   [k] (0 = oldest) sits at [(head + k) land (size - 1)], so a push or a
   take allocates nothing once the ring has grown and stores one
   pointer. *)
type 'msg ring = {
  cap : int; (* tail-drop above this many entries *)
  mutable msgs : 'msg array;
  mutable head : int;
  mutable len : int;
}

type 'msg t = {
  mode : mode;
  shared : 'msg ring; (* used in Shared mode *)
  requests : 'msg ring; (* used in Split mode *)
  consensus : 'msg ring;
  mutable dropped_requests : int;
  mutable dropped_consensus : int;
}

(* Filler for vacant message slots, as in [Repro_util.Heap]: an immediate
   the GC never follows, so a taken or cleared message is released at
   once. *)
let vacant () : 'msg = Obj.magic 0

let ring cap = { cap; msgs = [||]; head = 0; len = 0 }

(* Double the array (from 16), unwrapping the entries to start at 0. *)
let grow r =
  let size = Array.length r.msgs in
  let nsize = if size = 0 then 16 else 2 * size in
  let msgs = Array.make nsize (vacant ()) in
  for k = 0 to r.len - 1 do
    Array.unsafe_set msgs k (Array.unsafe_get r.msgs ((r.head + k) land (size - 1)))
  done;
  r.msgs <- msgs;
  r.head <- 0

let ring_push r msg =
  if r.len = Array.length r.msgs then grow r;
  Array.unsafe_set r.msgs ((r.head + r.len) land (Array.length r.msgs - 1)) msg;
  r.len <- r.len + 1

(* The oldest entry's message; the caller has checked [r.len > 0]. *)
let ring_take r =
  let j = r.head in
  let msg = Array.unsafe_get r.msgs j in
  Array.unsafe_set r.msgs j (vacant ());
  r.head <- (j + 1) land (Array.length r.msgs - 1);
  r.len <- r.len - 1;
  msg

let ring_clear r =
  for k = 0 to r.len - 1 do
    Array.unsafe_set r.msgs ((r.head + k) land (Array.length r.msgs - 1)) (vacant ())
  done;
  r.head <- 0;
  r.len <- 0

let create mode =
  let shared, requests, consensus =
    match mode with
    | Shared cap when cap <= 0 ->
        Repro_util.Invariant.fail "Inbox.create: capacity must be positive"
    | Split { request_cap; consensus_cap } when request_cap <= 0 || consensus_cap <= 0 ->
        Repro_util.Invariant.fail "Inbox.create: capacity must be positive"
    | Shared cap -> (ring cap, ring 0, ring 0)
    | Split { request_cap; consensus_cap } -> (ring 0, ring request_cap, ring consensus_cap)
  in
  { mode; shared; requests; consensus; dropped_requests = 0; dropped_consensus = 0 }

let drop t channel =
  (match channel with
  | Request -> t.dropped_requests <- t.dropped_requests + 1
  | Consensus -> t.dropped_consensus <- t.dropped_consensus + 1);
  false

let push t channel msg =
  let r =
    match t.mode with
    | Shared _ -> t.shared
    | Split _ -> ( match channel with Request -> t.requests | Consensus -> t.consensus)
  in
  if r.len >= r.cap then drop t channel
  else begin
    ring_push r msg;
    true
  end

(* The ring the next message comes from: in Split mode consensus first. *)
let next_ring t =
  match t.mode with
  | Shared _ -> t.shared
  | Split _ -> if t.consensus.len > 0 then t.consensus else t.requests

let take t =
  let r = next_ring t in
  if r.len = 0 then Repro_util.Invariant.fail "Inbox.take: empty inbox";
  ring_take r

let length t = t.shared.len + t.requests.len + t.consensus.len

let dropped t = function
  | Request -> t.dropped_requests
  | Consensus -> t.dropped_consensus

let clear t =
  ring_clear t.shared;
  ring_clear t.requests;
  ring_clear t.consensus

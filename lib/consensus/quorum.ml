type slot = { mask : Bytes.t; mutable count : int }

type t = { n : int; slots : (int * int * int, slot) Hashtbl.t }

let create ~n =
  if n <= 0 then Repro_util.Invariant.fail "Quorum.create: n must be positive";
  { n; slots = Hashtbl.create 256 }

let get_slot t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
      let s = { mask = Bytes.make t.n '\000'; count = 0 } in
      Hashtbl.replace t.slots key s;
      s

let vote t ~view ~seq ~digest ~member =
  if member < 0 || member >= t.n then
    Repro_util.Invariant.fail "Quorum.vote: member %d out of range [0,%d)" member t.n;
  let s = get_slot t (view, seq, digest) in
  if Bytes.get s.mask member = '\000' then begin
    Bytes.set s.mask member '\001';
    s.count <- s.count + 1
  end;
  s.count

let count t ~view ~seq ~digest =
  match Hashtbl.find_opt t.slots (view, seq, digest) with None -> 0 | Some s -> s.count

let voters t ~view ~seq ~digest =
  match Hashtbl.find_opt t.slots (view, seq, digest) with
  | None -> []
  | Some s ->
      let acc = ref [] in
      for i = t.n - 1 downto 0 do
        if Bytes.get s.mask i = '\001' then acc := i :: !acc
      done;
      !acc

let cert t ~threshold ~view ~seq ~digest =
  match Hashtbl.find_opt t.slots (view, seq, digest) with
  | Some s when s.count >= threshold -> Some (voters t ~view ~seq ~digest)
  | _ -> None

let forget_below t ~seq =
  let stale =
    List.filter
      (fun (_, s, _) -> s < seq)
      (Repro_util.Det.keys ~compare:Repro_util.Det.int_triple t.slots)
  in
  List.iter (Hashtbl.remove t.slots) stale

(* The classic 2f+1 supermajority threshold.  Protocol code must call
   this rather than spelling the arithmetic out (ahl_lint R5); the size
   formulas themselves live only here and in Config/Sizing. *)
let supermajority ~f = (2 * f) + 1

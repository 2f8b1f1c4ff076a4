open Repro_crypto

type proof = {
  signer : int;
  log : int;
  slot : int;
  digest_tag : int;
  signature : Keys.signature;
}

type snapshot = (int * int * int) list
(* (log, slot, digest_tag) triples *)

type t = {
  enclave : Enclave.t;
  mutable entries : (int * int, int) Hashtbl.t; (* (log, slot) -> digest_tag *)
  watermark_window : int;
  mutable recovering : bool;
  mutable peer_checkpoints : (int, int) Hashtbl.t;
  mutable hm : int option;
}

let create enclave ~watermark_window =
  if watermark_window <= 0 then
    Repro_util.Invariant.fail "A2m.create: watermark window %d must be positive" watermark_window;
  {
    enclave;
    entries = Hashtbl.create 256;
    watermark_window;
    recovering = false;
    peer_checkpoints = Hashtbl.create 8;
    hm = None;
  }

let proof_tag ~signer ~log ~slot ~digest_tag =
  Repro_util.Det.stable_hash (Printf.sprintf "a2m:%d:%d:%d:%d" signer log slot digest_tag)

let append t ~log ~slot ~digest_tag =
  let costs = Enclave.costs t.enclave in
  Enclave.charge t.enclave costs.Cost_model.ahl_append;
  if t.recovering then None
  else
    match Hashtbl.find_opt t.entries (log, slot) with
    | Some existing when existing <> digest_tag -> None (* equivocation refused *)
    | Some _ | None ->
        Hashtbl.replace t.entries (log, slot) digest_tag;
        let signer = Enclave.id t.enclave in
        let signature =
          Enclave.sign_free t.enclave ~msg_tag:(proof_tag ~signer ~log ~slot ~digest_tag)
        in
        Some { signer; log; slot; digest_tag; signature }

let lookup t ~log ~slot = Hashtbl.find_opt t.entries (log, slot)

let verify keystore p =
  p.signature.Keys.signer = p.signer
  && Keys.verify keystore p.signature
       ~msg_tag:(proof_tag ~signer:p.signer ~log:p.log ~slot:p.slot ~digest_tag:p.digest_tag)

let truncate_below t ~slot =
  let keep = Hashtbl.create (Hashtbl.length t.entries) in
  Repro_util.Det.iter ~compare:Repro_util.Det.int_pair
    (fun (l, s) d -> if s >= slot then Hashtbl.replace keep (l, s) d)
    t.entries;
  t.entries <- keep

let seal_state t =
  let snapshot =
    List.map
      (fun ((l, s), d) -> (l, s, d))
      (Repro_util.Det.bindings ~compare:Repro_util.Det.int_pair t.entries)
  in
  Sealing.seal t.enclave snapshot

let restart t ~resume_with =
  Enclave.restart t.enclave;
  t.entries <- Hashtbl.create 256;
  (match resume_with with
  | None -> ()
  | Some blob -> (
      match Sealing.unseal t.enclave blob with
      | None -> () (* tampered or foreign blob: start empty *)
      | Some snapshot ->
          List.iter (fun (l, s, d) -> Hashtbl.replace t.entries (l, s) d) snapshot));
  t.recovering <- true;
  t.peer_checkpoints <- Hashtbl.create 8;
  t.hm <- None

let is_recovering t = t.recovering

let highest_attested t =
  Repro_util.Det.fold ~compare:Repro_util.Det.int_pair
    (fun (_, s) _ acc -> Stdlib.max acc s)
    t.entries (-1)

let record_peer_checkpoint t ~peer ~ckp =
  if t.recovering && peer <> Enclave.id t.enclave then
    Hashtbl.replace t.peer_checkpoints peer ckp

let estimate_hm t ~f =
  if f < 0 then Repro_util.Invariant.fail "A2m.estimate_hm: f = %d must be non-negative" f;
  let responses = List.map snd (Repro_util.Det.bindings ~compare:Int.compare t.peer_checkpoints) in
  if List.length responses < f + 1 then None
  else begin
    (* ckpM = (f+1)-th smallest response: at least f other replicas report
       values <= ckpM, so by quorum intersection no stable checkpoint the
       pre-crash enclave saw can exceed it. *)
    let sorted = List.sort Int.compare responses in
    let ckp_m = List.nth sorted f in
    let hm = ckp_m + t.watermark_window in
    t.hm <- Some hm;
    Some hm
  end

let finish_recovery t ~f ~stable_checkpoint =
  if not t.recovering then true
  else
    match (match t.hm with Some hm -> Some hm | None -> estimate_hm t ~f) with
    | None -> false
    | Some hm ->
        if stable_checkpoint >= hm then begin
          t.recovering <- false;
          true
        end
        else false

open Repro_crypto

type cert = { epoch : int; rnd : int64; signature : Keys.signature }

type outcome =
  | Cert of cert
  | Unlucky
  | Already_invoked
  | Guard_active
  | Genesis_replayed

type t = {
  enclave : Enclave.t;
  counter : Mono_counter.t;
  l_bits : int;
  delta : float;
  served : (int, int) Hashtbl.t; (* epoch -> generation when served *)
}

let create enclave counter ~l_bits ~delta =
  if l_bits < 0 || l_bits > 62 then
    Repro_util.Invariant.fail "Beacon.create: l_bits = %d out of [0, 62]" l_bits;
  { enclave; counter; l_bits; delta; served = Hashtbl.create 16 }

let cert_tag ~signer ~epoch ~rnd =
  Repro_util.Det.stable_hash (Printf.sprintf "beacon:%d:%d:%Ld" signer epoch rnd)

let invoke t ~epoch =
  let costs = Enclave.costs t.enclave in
  Enclave.charge t.enclave (costs.Cost_model.beacon_invoke +. costs.Cost_model.enclave_switch);
  let generation = Enclave.generation t.enclave in
  let already =
    match Hashtbl.find_opt t.served epoch with
    | Some g -> g = generation (* served in the current generation *)
    | None -> false
  in
  if already then Already_invoked
  else if epoch = 0 && Mono_counter.read t.counter > 0 then Genesis_replayed
  else if
    epoch <> 0
    && generation > 0
    && Enclave.trusted_time t.enclave -. Enclave.instantiated_at t.enclave < t.delta
  then Guard_active
  else begin
    if epoch = 0 then ignore (Mono_counter.increment t.counter);
    Hashtbl.replace t.served epoch generation;
    (* q and rnd from two independent sgx_read_rand invocations. *)
    let q = if t.l_bits = 0 then 0 else Enclave.read_rand_bits t.enclave t.l_bits in
    let rnd = Enclave.read_rand64 t.enclave in
    if q <> 0 then Unlucky
    else
      let signer = Enclave.id t.enclave in
      let signature = Enclave.sign_free t.enclave ~msg_tag:(cert_tag ~signer ~epoch ~rnd) in
      Cert { epoch; rnd; signature }
  end

let verify keystore c =
  Keys.verify keystore c.signature
    ~msg_tag:(cert_tag ~signer:c.signature.Keys.signer ~epoch:c.epoch ~rnd:c.rnd)

let restart t =
  Enclave.restart t.enclave;
  (* Volatile memory is lost: the served set empties (modelled by the
     generation check in [invoke]). *)
  ()

let repeat_probability ~l_bits ~n =
  Float.pow (1.0 -. Float.pow 2.0 (float_of_int (-l_bits))) (float_of_int n)

let expected_certs ~l_bits ~n = float_of_int n *. Float.pow 2.0 (float_of_int (-l_bits))

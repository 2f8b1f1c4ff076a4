open Repro_crypto

type 'a sealed = {
  payload : 'a;
  sealer : int;
  measurement : Sha256.digest;
  mac : Keys.signature; (* models AES-GCM under the sealing key *)
}

let mac_tag ~sealer ~measurement payload =
  (* The payload is an arbitrary ['a] with no explicit rendering, so the
     polymorphic hash stays confined to this one site; sealed payloads are
     immediate data in practice, where the hash is layout-stable.
     ahl_lint: allow R8 *)
  let payload_tag = Hashtbl.hash payload in
  Repro_util.Det.stable_hash
    (Printf.sprintf "seal:%d:%s:%d" sealer (Sha256.to_raw measurement) payload_tag)

let seal enclave payload =
  let costs = Enclave.costs enclave in
  Enclave.charge enclave (costs.Cost_model.seal +. costs.Cost_model.enclave_switch);
  let sealer = Enclave.id enclave in
  let measurement = Enclave.measurement enclave in
  {
    payload;
    sealer;
    measurement;
    mac = Enclave.sign_free enclave ~msg_tag:(mac_tag ~sealer ~measurement payload);
  }

let unseal enclave blob =
  Enclave.ecall enclave;
  let ok =
    blob.sealer = Enclave.id enclave
    && Sha256.equal blob.measurement (Enclave.measurement enclave)
    && Keys.verify (Enclave.keystore enclave) blob.mac
         ~msg_tag:(mac_tag ~sealer:blob.sealer ~measurement:blob.measurement blob.payload)
  in
  if ok then Some blob.payload else None

let tamper blob payload = { blob with payload }

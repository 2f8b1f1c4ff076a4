open Repro_util
open Repro_crypto

(* ------------------------------------------------------------------ *)
(* SHA-256 known-answer tests (FIPS 180-4 / NIST CAVS vectors)         *)
(* ------------------------------------------------------------------ *)

let hex_of s = Sha256.to_hex (Sha256.digest_string s)

let test_sha256_empty () =
  Alcotest.(check string) "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (hex_of "")

let test_sha256_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (hex_of "abc")

let test_sha256_448_bits () =
  Alcotest.(check string) "two-block boundary message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex_of "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_896_bits () =
  Alcotest.(check string) "four-block message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (hex_of
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_million_a () =
  Alcotest.(check string) "one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex_of (String.make 1_000_000 'a'))

let test_sha256_incremental_matches_oneshot () =
  (* digest_concat must agree with digesting the concatenation, across
     chunkings that straddle the 64-byte block boundary. *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let whole = Sha256.digest_string msg in
  List.iter
    (fun cut ->
      let parts = [ String.sub msg 0 cut; String.sub msg cut (String.length msg - cut) ] in
      Alcotest.(check string) "chunked = one-shot" (Sha256.to_hex whole)
        (Sha256.to_hex (Sha256.digest_concat parts)))
    [ 1; 63; 64; 65; 127; 128; 129; 299 ]

(* Lengths on both sides of [finish]'s two-block padding branch (a tail of
   56+ bytes leaves no room for the length).  Messages are "abc...z"
   repeated; expected digests come from coreutils' sha256sum. *)
let padding_boundary_vectors =
  [
    (55, "595615dbe4f0f407ae397d08b4c2cb870cb9b0e11937416f950c5160acf9c005");
    (56, "784f623b787495078e93ff28a25b581df0584055a7e71d8cd90c454716b92f51");
    (57, "808f0738aa4401bdee842e5a15a7baad5809f976d8eb6f9bd2683cebd2e8d671");
    (63, "5ca3e1ef5207490eac01a795e5cc94d59582a5118bf9534665c8668d87aa647c");
    (64, "2fcd5a0d60e4c941381fcc4e00a4bf8be422c3ddfafb93c809e8d1e2bfffae8e");
    (65, "1b3cd1877ab2f2f19f7be001722554f336cb799df0329de0bb4c118dc6abc06d");
    (119, "faef67da856d6fd9c8d12f9ed0a4fefd3cf0ce085ab43e2907418d457e3c354b");
    (120, "c9512b08619c19fbb503c7da6b46ef20301e5f7a7a5f43989182398536f5c5c8");
  ]

let alphabet_message n = String.init n (fun i -> Char.chr (Char.code 'a' + (i mod 26)))

let test_sha256_padding_boundaries () =
  List.iter
    (fun (n, expected) ->
      let msg = alphabet_message n in
      Alcotest.(check string) (Printf.sprintf "%d bytes" n) expected (hex_of msg);
      for cut = 0 to n do
        let parts = [ String.sub msg 0 cut; String.sub msg cut (n - cut) ] in
        Alcotest.(check string)
          (Printf.sprintf "%d bytes split at %d" n cut)
          expected
          (Sha256.to_hex (Sha256.digest_concat parts))
      done)
    padding_boundary_vectors

(* [first_word] is the digest's first four bytes, on the one-block path
   (up to 55 bytes, every tail length mod 4) and past it. *)
let test_sha256_first_word () =
  let leading d = int_of_string ("0x" ^ String.sub d 0 8) in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "%d bytes" n) (leading expected)
        (Sha256.first_word (alphabet_message n)))
    padding_boundary_vectors;
  for n = 0 to 130 do
    let msg = String.init n (fun i -> Char.chr (((i * 97) + n) land 255)) in
    Alcotest.(check int) (Printf.sprintf "%d bytes, high bits" n) (leading (hex_of msg))
      (Sha256.first_word msg)
  done

let test_sha256_of_raw_roundtrip () =
  let d = Sha256.digest_string "roundtrip" in
  let d' = Sha256.of_raw_exn (Sha256.to_raw d) in
  Alcotest.(check bool) "equal" true (Sha256.equal d d')

let test_sha256_of_raw_rejects_bad_length () =
  Alcotest.check_raises "31 bytes" (Sha256.Not_a_digest 31) (fun () ->
      ignore (Sha256.of_raw_exn (String.make 31 'x')))

(* RFC 4231 HMAC-SHA256 test vectors. *)
let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.to_hex (Sha256.hmac ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.to_hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_rfc4231_long_key () =
  (* Case 6: 131-byte key forces the key-hashing path. *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.to_hex (Sha256.hmac ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

(* ------------------------------------------------------------------ *)
(* Merkle                                                              *)
(* ------------------------------------------------------------------ *)

let leaves n = List.init n (fun i -> Printf.sprintf "tx-%d" i)

let test_merkle_empty () =
  Alcotest.(check bool) "empty root is stable" true
    (Sha256.equal (Merkle.root []) Merkle.empty_root)

let test_merkle_single_leaf () =
  let r = Merkle.root [ "only" ] in
  Alcotest.(check bool) "root of single leaf is its leaf hash" true
    (Sha256.equal r (Merkle.leaf_hash "only"))

let test_merkle_order_sensitivity () =
  Alcotest.(check bool) "leaf order matters" false
    (Sha256.equal (Merkle.root [ "a"; "b" ]) (Merkle.root [ "b"; "a" ]))

let test_merkle_leaf_node_domain_separation () =
  (* A leaf equal to the concatenation of two digests must not collide with
     an internal node. *)
  let l = Merkle.leaf_hash "x" and r = Merkle.leaf_hash "y" in
  let fake_leaf = (l : Sha256.digest :> string) ^ (r : Sha256.digest :> string) in
  Alcotest.(check bool) "no second-preimage by type confusion" false
    (Sha256.equal (Merkle.root [ "x"; "y" ]) (Merkle.leaf_hash fake_leaf))

let test_merkle_proof_verifies_all_sizes () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let root = Merkle.root ls in
      List.iteri
        (fun i leaf ->
          let proof = Merkle.prove ls i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d verifies" n i)
            true
            (Merkle.verify ~root ~leaf proof))
        ls)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let test_merkle_proof_rejects_wrong_leaf () =
  let ls = leaves 8 in
  let root = Merkle.root ls in
  let proof = Merkle.prove ls 3 in
  Alcotest.(check bool) "wrong leaf fails" false (Merkle.verify ~root ~leaf:"tx-4" proof)

let test_merkle_proof_rejects_wrong_root () =
  let ls = leaves 8 in
  let proof = Merkle.prove ls 3 in
  let other_root = Merkle.root (leaves 9) in
  Alcotest.(check bool) "wrong root fails" false
    (Merkle.verify ~root:other_root ~leaf:"tx-3" proof)

let test_merkle_prove_out_of_range () =
  Alcotest.check_raises "index out of range"
    (Merkle.Leaf_out_of_range { index = 4; leaves = 4 }) (fun () ->
      ignore (Merkle.prove (leaves 4) 4))

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let mk_keystore () = Keys.create_keystore (Rng.create 99L)

let test_keys_sign_verify () =
  let ks = mk_keystore () in
  let sk = Keys.gen ks ~id:1 in
  let s = Keys.sign sk ~msg_tag:12345 in
  Alcotest.(check bool) "valid signature verifies" true (Keys.verify ks s ~msg_tag:12345)

let test_keys_reject_wrong_message () =
  let ks = mk_keystore () in
  let sk = Keys.gen ks ~id:1 in
  let s = Keys.sign sk ~msg_tag:12345 in
  Alcotest.(check bool) "different message fails" false (Keys.verify ks s ~msg_tag:54321)

let test_keys_reject_unknown_signer () =
  let ks = mk_keystore () in
  let s = { Keys.signer = 7; auth = 42L } in
  Alcotest.(check bool) "unknown signer fails" false (Keys.verify ks s ~msg_tag:1)

let test_keys_reject_forged_tag () =
  let ks = mk_keystore () in
  let _sk = Keys.gen ks ~id:1 in
  let forged = { Keys.signer = 1; auth = 0xDEADBEEFL } in
  Alcotest.(check bool) "forged tag fails" false (Keys.verify ks forged ~msg_tag:1)

let test_keys_cross_principal () =
  let ks = mk_keystore () in
  let sk1 = Keys.gen ks ~id:1 in
  let _sk2 = Keys.gen ks ~id:2 in
  let s = Keys.sign sk1 ~msg_tag:10 in
  let claimed_by_2 = { s with Keys.signer = 2 } in
  Alcotest.(check bool) "re-attributed signature fails" false
    (Keys.verify ks claimed_by_2 ~msg_tag:10)

let test_keys_duplicate_registration () =
  let ks = mk_keystore () in
  let _ = Keys.gen ks ~id:5 in
  Alcotest.check_raises "duplicate id" (Keys.Already_registered 5) (fun () ->
      ignore (Keys.gen ks ~id:5))

let test_keys_gen_many () =
  let ks = mk_keystore () in
  let secrets = Keys.gen_many ks 10 in
  Alcotest.(check int) "ten principals" 10 (Array.length secrets);
  Array.iteri (fun i sk -> Alcotest.(check int) "id order" i (Keys.id_of sk)) secrets

let test_keys_hmac_mode () =
  let ks = mk_keystore () in
  let sk = Keys.gen ks ~id:3 in
  let d = Keys.sign_hmac sk "payload" in
  Alcotest.(check bool) "hmac verifies" true (Keys.verify_hmac ks ~id:3 "payload" d);
  Alcotest.(check bool) "hmac rejects other payload" false
    (Keys.verify_hmac ks ~id:3 "other" d);
  Alcotest.(check bool) "hmac rejects other principal" false
    (Keys.verify_hmac ks ~id:99 "payload" d)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_table2_values () =
  let c = Cost_model.default in
  Alcotest.(check (float 1e-12)) "sign" 458.4e-6 c.Cost_model.ecdsa_sign;
  Alcotest.(check (float 1e-12)) "verify" 844.2e-6 c.Cost_model.ecdsa_verify;
  Alcotest.(check (float 1e-12)) "sha" 2.5e-6 c.Cost_model.sha256;
  Alcotest.(check (float 1e-12)) "append" 465.3e-6 c.Cost_model.ahl_append;
  Alcotest.(check (float 1e-12)) "beacon" 482.2e-6 c.Cost_model.beacon_invoke

let test_cost_ahlr_aggregate_matches_table2 () =
  (* Table 2 reports 8031.2 µs for aggregation at f = 8. *)
  let c = Cost_model.default in
  let agg = Cost_model.ahlr_aggregate c ~f:8 in
  Alcotest.(check (float 5e-6)) "f=8 aggregation" 8031.2e-6 agg

let test_cost_ahlr_aggregate_scales_with_f () =
  let c = Cost_model.default in
  let a1 = Cost_model.ahlr_aggregate c ~f:1 in
  let a20 = Cost_model.ahlr_aggregate c ~f:20 in
  Alcotest.(check (float 1e-9)) "linear in f"
    (19.0 *. c.Cost_model.ecdsa_verify) (a20 -. a1)

let test_cost_free_is_zero () =
  let c = Cost_model.free in
  Alcotest.(check (float 0.0)) "aggregate free" 0.0 (Cost_model.ahlr_aggregate c ~f:10);
  Alcotest.(check (float 0.0)) "verify batch free" 0.0 (Cost_model.verify_batch c 100)

let test_cost_verify_batch () =
  let c = Cost_model.default in
  Alcotest.(check (float 1e-12)) "batch of 10" (10.0 *. c.Cost_model.ecdsa_verify)
    (Cost_model.verify_batch c 10)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let prop_sha_deterministic =
  QCheck.Test.make ~name:"sha256 is deterministic" ~count:100 QCheck.string (fun s ->
      Sha256.equal (Sha256.digest_string s) (Sha256.digest_string s))

let prop_sha_injective_on_samples =
  QCheck.Test.make ~name:"sha256 distinguishes distinct strings" ~count:200
    QCheck.(pair string string)
    (fun (a, b) -> a = b || not (Sha256.equal (Sha256.digest_string a) (Sha256.digest_string b)))

let prop_sha_first_word =
  QCheck.Test.make ~name:"first_word is the digest's first word" ~count:300 QCheck.string
    (fun s -> Sha256.first_word s = int_of_string ("0x" ^ String.sub (hex_of s) 0 8))

let prop_sha_concat_chunking =
  QCheck.Test.make ~name:"digest_concat independent of chunking" ~count:100
    QCheck.(list string)
    (fun parts ->
      Sha256.equal (Sha256.digest_concat parts) (Sha256.digest_string (String.concat "" parts)))

let prop_merkle_all_proofs_verify =
  QCheck.Test.make ~name:"every merkle proof verifies" ~count:60
    QCheck.(list_of_size Gen.(1 -- 40) string)
    (fun ls ->
      let root = Merkle.root ls in
      List.for_all
        (fun i -> Merkle.verify ~root ~leaf:(List.nth ls i) (Merkle.prove ls i))
        (List.init (List.length ls) Fun.id))

let prop_sign_verify_roundtrip =
  QCheck.Test.make ~name:"simulated signature roundtrip" ~count:200
    QCheck.(pair small_int int)
    (fun (id, msg_tag) ->
      let ks = Keys.create_keystore (Rng.create 7L) in
      let sk = Keys.gen ks ~id in
      Keys.verify ks (Keys.sign sk ~msg_tag) ~msg_tag)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sha_deterministic;
      prop_sha_injective_on_samples;
      prop_sha_concat_chunking;
      prop_sha_first_word;
      prop_merkle_all_proofs_verify;
      prop_sign_verify_roundtrip;
    ]

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "448-bit vector" `Quick test_sha256_448_bits;
          Alcotest.test_case "896-bit vector" `Quick test_sha256_896_bits;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental chunking" `Quick test_sha256_incremental_matches_oneshot;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_padding_boundaries;
          Alcotest.test_case "first word" `Quick test_sha256_first_word;
          Alcotest.test_case "raw roundtrip" `Quick test_sha256_of_raw_roundtrip;
          Alcotest.test_case "raw rejects bad length" `Quick test_sha256_of_raw_rejects_bad_length;
          Alcotest.test_case "hmac rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "hmac rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "hmac long key" `Quick test_hmac_rfc4231_long_key;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "empty" `Quick test_merkle_empty;
          Alcotest.test_case "single leaf" `Quick test_merkle_single_leaf;
          Alcotest.test_case "order sensitivity" `Quick test_merkle_order_sensitivity;
          Alcotest.test_case "domain separation" `Quick test_merkle_leaf_node_domain_separation;
          Alcotest.test_case "proofs verify (all sizes)" `Quick test_merkle_proof_verifies_all_sizes;
          Alcotest.test_case "rejects wrong leaf" `Quick test_merkle_proof_rejects_wrong_leaf;
          Alcotest.test_case "rejects wrong root" `Quick test_merkle_proof_rejects_wrong_root;
          Alcotest.test_case "prove out of range" `Quick test_merkle_prove_out_of_range;
        ] );
      ( "keys",
        [
          Alcotest.test_case "sign/verify" `Quick test_keys_sign_verify;
          Alcotest.test_case "rejects wrong message" `Quick test_keys_reject_wrong_message;
          Alcotest.test_case "rejects unknown signer" `Quick test_keys_reject_unknown_signer;
          Alcotest.test_case "rejects forged tag" `Quick test_keys_reject_forged_tag;
          Alcotest.test_case "rejects re-attribution" `Quick test_keys_cross_principal;
          Alcotest.test_case "duplicate registration" `Quick test_keys_duplicate_registration;
          Alcotest.test_case "gen_many" `Quick test_keys_gen_many;
          Alcotest.test_case "hmac mode" `Quick test_keys_hmac_mode;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "table 2 values" `Quick test_cost_table2_values;
          Alcotest.test_case "aggregate matches table 2" `Quick
            test_cost_ahlr_aggregate_matches_table2;
          Alcotest.test_case "aggregate scales with f" `Quick test_cost_ahlr_aggregate_scales_with_f;
          Alcotest.test_case "free model is zero" `Quick test_cost_free_is_zero;
          Alcotest.test_case "verify batch" `Quick test_cost_verify_batch;
        ] );
      ("properties", qsuite);
    ]

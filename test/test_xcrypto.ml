(* Tests for the simulated-authentication substrate: hashing, signatures,
   signed values, hashlocks. *)

open Xcrypto

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let hash_tests =
  [
    Alcotest.test_case "deterministic" `Quick (fun () ->
        check Alcotest.bool "eq" true
          (Hash.equal (Hash.of_string "abc") (Hash.of_string "abc")));
    Alcotest.test_case "different inputs differ" `Quick (fun () ->
        check Alcotest.bool "neq" false
          (Hash.equal (Hash.of_string "abc") (Hash.of_string "abd")));
    Alcotest.test_case "empty vs non-empty" `Quick (fun () ->
        check Alcotest.bool "neq" false
          (Hash.equal (Hash.of_string "") (Hash.of_string "x")));
    Alcotest.test_case "short is an 8-char prefix" `Quick (fun () ->
        let h = Hash.of_string "q" in
        check Alcotest.string "prefix" (String.sub (Hash.to_hex h) 0 8) (Hash.short h));
    Alcotest.test_case "hex is 32 chars" `Quick (fun () ->
        check Alcotest.int "len" 32 (String.length (Hash.to_hex (Hash.of_string "q"))));
    qcheck
      (QCheck.Test.make ~name:"feeding in pieces equals hashing the whole"
         QCheck.(pair string string)
         (fun (s1, s2) ->
           Hash.equal
             (Hash.finish (Hash.feed (Hash.feed Hash.start s1) s2))
             (Hash.of_string (s1 ^ s2))));
    qcheck
      (QCheck.Test.make ~name:"hex64 is Printf %Lx" QCheck.int64 (fun x ->
           String.equal (Hash.hex64 x) (Printf.sprintf "%Lx" x)));
    Alcotest.test_case "hex64 edge values" `Quick (fun () ->
        List.iter
          (fun x -> check Alcotest.string "hex" (Printf.sprintf "%Lx" x) (Hash.hex64 x))
          [ 0L; 1L; 15L; 16L; -1L; Int64.min_int; Int64.max_int ]);
    qcheck
      (QCheck.Test.make ~name:"no collisions on random distinct strings"
         QCheck.(pair string string)
         (fun (s1, s2) ->
           String.equal s1 s2
           || not (Hash.equal (Hash.of_string s1) (Hash.of_string s2))));
    qcheck
      (QCheck.Test.make
         ~name:"an in-place check agrees with finishing the hash"
         QCheck.(triple string string (pair small_nat (int_bound 2)))
         (fun (prefix, s, (pos, how)) ->
           let st = Hash.feed Hash.start prefix in
           let mac = Hash.finish (Hash.feed st s) in
           (* the genuine message, one with a flipped byte, or a MAC that
              no key made *)
           let msg, mac =
             match how with
             | 1 when s <> "" ->
                 let b = Bytes.of_string s in
                 let i = pos mod Bytes.length b in
                 Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                 (Bytes.to_string b, mac)
             | 2 -> (s, Hash.of_string "forged")
             | _ -> (s, mac)
           in
           Hash.matches st msg mac
           = Hash.equal (Hash.finish (Hash.feed st msg)) mac));
  ]

(* A statement writer for an int, and one for a different statement of
   the same int *)
let put_n buf n = Auth.put_int buf 0 n
let put_bang buf n = Auth.put_char buf (Auth.put_int buf 0 n) '!'

let auth_tests =
  [
    Alcotest.test_case "sign/verify roundtrip" `Quick (fun () ->
        let reg = Auth.create ~seed:1 in
        let s = Auth.register reg 7 in
        let signature = Auth.sign s "hello" in
        check Alcotest.bool "ok" true (Auth.verify reg 7 "hello" signature));
    Alcotest.test_case "wrong message fails" `Quick (fun () ->
        let reg = Auth.create ~seed:1 in
        let s = Auth.register reg 7 in
        let signature = Auth.sign s "hello" in
        check Alcotest.bool "bad" false (Auth.verify reg 7 "hellp" signature));
    Alcotest.test_case "wrong identity fails" `Quick (fun () ->
        let reg = Auth.create ~seed:1 in
        let s7 = Auth.register reg 7 in
        let _s8 = Auth.register reg 8 in
        let signature = Auth.sign s7 "hello" in
        check Alcotest.bool "bad id" false (Auth.verify reg 8 "hello" signature));
    Alcotest.test_case "forged signature fails" `Quick (fun () ->
        let reg = Auth.create ~seed:1 in
        let _ = Auth.register reg 7 in
        check Alcotest.bool "forged" false
          (Auth.verify reg 7 "hello" (Auth.forged 7)));
    Alcotest.test_case "unknown identity fails" `Quick (fun () ->
        let reg = Auth.create ~seed:1 in
        check Alcotest.bool "unknown" false
          (Auth.verify reg 99 "hello" (Auth.forged 99)));
    Alcotest.test_case "re-registration raises" `Quick (fun () ->
        let reg = Auth.create ~seed:1 in
        let _ = Auth.register reg 7 in
        Alcotest.check_raises "dup"
          (Invalid_argument "Auth.register: id 7 already registered") (fun () ->
            ignore (Auth.register reg 7)));
    Alcotest.test_case "signer_id" `Quick (fun () ->
        let reg = Auth.create ~seed:1 in
        check Alcotest.int "id" 3 (Auth.signer_id (Auth.register reg 3)));
    Alcotest.test_case "signed value verifies" `Quick (fun () ->
        let reg = Auth.create ~seed:2 in
        let s = Auth.register reg 0 in
        let sv = Auth.sign_value s ~put:put_n 42 in
        check Alcotest.bool "ok" true (Auth.verify_value reg ~put:put_n sv);
        check Alcotest.int "payload" 42 sv.Auth.payload;
        check Alcotest.int "author" 0 sv.Auth.author);
    Alcotest.test_case "forged signed value fails" `Quick (fun () ->
        let reg = Auth.create ~seed:2 in
        let _ = Auth.register reg 0 in
        let sv = Auth.forge_value ~author:0 42 in
        check Alcotest.bool "bad" false (Auth.verify_value reg ~put:put_n sv));
    Alcotest.test_case "serialization change invalidates" `Quick (fun () ->
        (* same payload signed under one serializer must not verify under
           another — signatures bind the exact statement *)
        let reg = Auth.create ~seed:2 in
        let s = Auth.register reg 0 in
        let sv = Auth.sign_value s ~put:put_n 42 in
        check Alcotest.bool "other ser" false
          (Auth.verify_value reg ~put:put_bang sv));
    Alcotest.test_case "cross-registry verification fails" `Quick (fun () ->
        let reg1 = Auth.create ~seed:1 and reg2 = Auth.create ~seed:99 in
        let s = Auth.register reg1 0 in
        let _ = Auth.register reg2 0 in
        let signature = Auth.sign s "m" in
        check Alcotest.bool "bad" false (Auth.verify reg2 0 "m" signature));
    qcheck
      (QCheck.Test.make ~name:"verify accepts exactly the signed message"
         QCheck.(pair string string)
         (fun (m1, m2) ->
           let reg = Auth.create ~seed:5 in
           let s = Auth.register reg 1 in
           let signature = Auth.sign s m1 in
           Auth.verify reg 1 m2 signature = String.equal m1 m2));
  ]

let lock_str p = Fmt.str "%a" Hashlock.pp_lock (Hashlock.lock_of p)

let hashlock_tests =
  [
    Alcotest.test_case "preimage matches its lock" `Quick (fun () ->
        let p = Hashlock.fresh (Sim.Rng.create ~seed:3) in
        check Alcotest.bool "match" true (Hashlock.matches (Hashlock.lock_of p) p));
    Alcotest.test_case "bogus preimage fails" `Quick (fun () ->
        let p = Hashlock.fresh (Sim.Rng.create ~seed:3) in
        check Alcotest.bool "no match" false
          (Hashlock.matches (Hashlock.lock_of p) (Hashlock.bogus_preimage ())));
    Alcotest.test_case "distinct preimages give distinct locks" `Quick (fun () ->
        let g = Sim.Rng.create ~seed:3 in
        let p1 = Hashlock.fresh g and p2 = Hashlock.fresh g in
        check Alcotest.bool "distinct" false
          (Hashlock.matches (Hashlock.lock_of p1) p2);
        check Alcotest.bool "rendered apart" false
          (String.equal (lock_str p1) (lock_str p2)));
    Alcotest.test_case "lock equality is structural" `Quick (fun () ->
        let p = Hashlock.fresh (Sim.Rng.create ~seed:3) in
        check Alcotest.string "eq" (lock_str p) (lock_str p);
        check Alcotest.bool "either matches" true
          (Hashlock.matches (Hashlock.lock_of p) p));
  ]

(* Known-answer vectors. Every digest, MAC and preimage the simulator
   produces feeds golden transcripts and byte-identity pins, so the values
   themselves are pinned here, not only their algebraic properties. The
   inputs cover the empty string, one byte, a long string and bytes
   >= 0x80; seed 6 draws a preimage whose second field has a leading zero
   nibble, which [%Lx]-style hex drops. *)

let kat_long = String.init 200 (fun i -> Char.chr (32 + (i * 7 mod 90)))
let kat_high = "\x80\xff\xc3\xa9-\x7f\x00z"

let kat_tests =
  let digest name input want =
    Alcotest.test_case ("digest " ^ name) `Quick (fun () ->
        check Alcotest.string name want (Hash.to_hex (Hash.of_string input)))
  in
  [
    digest "empty" "" "660642d83e1e828ed0811370428496ac";
    digest "one byte" "a" "bc35affb9a09abbb2fea24e0ceb1c592";
    digest "200 bytes" kat_long "f0ccbb664db7463f54ce0ace3a4f38bb";
    digest "high bytes" kat_high "a283a3778bda253ff1ecd0c6c5bd9dc0";
    Alcotest.test_case "signatures of seed-11 signers 0-7" `Quick (fun () ->
        let want =
          [|
            ("af93d10b", "73770efc", "d4cf0901");
            ("f0742805", "dbc40e8d", "b2c76451");
            ("692b249f", "95b96ef7", "1148f03c");
            ("289dbd32", "72247f3a", "2e76416c");
            ("fd83e0dd", "37841c4f", "8bb52015");
            ("416508c2", "98b9a7ce", "9399ca1c");
            ("a024d9f9", "b6149ce1", "df2dc047");
            ("38ff78c9", "5f90334c", "0fc017ef");
          |]
        in
        let reg = Auth.create ~seed:11 in
        Array.iteri
          (fun id (m0, m1, m2) ->
            let s = Auth.register reg id in
            let pin msg mac =
              check Alcotest.string
                (Printf.sprintf "signer %d over %S" id msg)
                mac
                (Hash.short (Auth.signature_mac (Auth.sign s msg)))
            in
            pin "" m0;
            pin "G|1|2|30" m1;
            pin kat_high m2)
          want);
    (* a preimage is secret, so it is pinned through its lock: the lock
       of the drawn preimage is the digest of the pinned string *)
    Alcotest.test_case "hashlock preimages" `Quick (fun () ->
        List.iter
          (fun (seed, want) ->
            check Alcotest.string
              (Printf.sprintf "seed %d" seed)
              (Printf.sprintf "lock<%s>" (Hash.short (Hash.of_string want)))
              (lock_str (Hashlock.fresh (Sim.Rng.create ~seed))))
          [
            (1, "pre-5f552ce482f2aa47bfef8030ddc2d772");
            (3, "pre-6f6203387a582791d0bb866aae328182");
            (6, "pre-56d14ad1989d7e27f7ad38a8149d06e");
            (42, "pre-290db4bf2570ded7989b3f130a063869");
          ]);
  ]

(* Every statement that is signed is written in place by a writer. Each
   writer must still produce exactly the string of the Printf formula it
   replaced, kept here as the reference, or every signature in a golden
   transcript would change. [stmt] reads a writer's bytes as a string. *)
module Msg = Protocols.Msg
module Dls = Consensus.Dls
module Committee = Quorum.Committee
module Dmsg = Deals.Dmsg

let stmt = Auth.statement
let time_of t = Fmt.str "%a" Sim.Sim_time.pp t

let time =
  QCheck.make ~print:time_of
    QCheck.Gen.(
      oneof [ return Sim.Sim_time.infinity; nat; map (fun n -> n land max_int) int ])

let ref_promise_g (g : Msg.promise_g) =
  Printf.sprintf "G|%d|%d|%s" g.g_escrow g.g_customer (time_of g.d)

let ref_verdict (v : Committee.verdict) =
  Printf.sprintf "%d:%c" v.item (if v.commit then 'c' else 'a')

let ref_batch b = "b|" ^ String.concat "," (List.map ref_verdict b)

let verdict =
  QCheck.Gen.(
    map (fun (item, commit) -> { Committee.item; commit }) (pair int bool))

let serialiser_tests =
  let prop name arb f = qcheck (QCheck.Test.make ~count:300 ~name arb f) in
  [
    prop "Sim_time.to_string" time (fun t ->
        String.equal (Sim.Sim_time.to_string t) (time_of t));
    prop "Msg.ser_promise_g"
      QCheck.(triple int int time)
      (fun (g_escrow, g_customer, d) ->
        let g = { Msg.g_escrow; g_customer; d } in
        String.equal (stmt Msg.ser_promise_g g) (ref_promise_g g));
    prop "Msg.ser_promise_p"
      QCheck.(triple int int time)
      (fun (p_escrow, p_customer, a) ->
        String.equal
          (stmt Msg.ser_promise_p { Msg.p_escrow; p_customer; a })
          (Printf.sprintf "P|%d|%d|%s" p_escrow p_customer (time_of a)));
    prop "Msg.ser_chi"
      QCheck.(pair int int)
      (fun (x_payment, x_bob) ->
        String.equal
          (stmt Msg.ser_chi { Msg.x_payment; x_bob })
          (Printf.sprintf "chi|%d|%d" x_payment x_bob));
    prop "Msg.ser_funded"
      QCheck.(triple int int int)
      (fun (f_escrow, f_payment, f_amount) ->
        String.equal
          (stmt Msg.ser_funded { Msg.f_escrow; f_payment; f_amount })
          (Printf.sprintf "funded|%d|%d|%d" f_escrow f_payment f_amount));
    prop "Msg.ser_decision"
      QCheck.(pair int bool)
      (fun (dec_payment, dec_commit) ->
        String.equal
          (stmt Msg.ser_decision { Msg.dec_payment; dec_commit })
          (Printf.sprintf "dec|%d|%b" dec_payment dec_commit));
    prop "Dls.ser_echo and ser_commit"
      QCheck.(pair int bool)
      (fun (round, v) ->
        String.equal
          (stmt (Dls.ser_echo Msg.ser_bool) { Dls.e_round = round; e_value = v })
          (Printf.sprintf "echo|%d|%s" round (Msg.ser_bool v))
        && String.equal
             (stmt (Dls.ser_commit Msg.ser_bool)
                { Dls.c_round = round; c_value = v })
             (Printf.sprintf "commit|%d|%s" round (Msg.ser_bool v)));
    prop "Committee.ser_batch"
      (QCheck.make QCheck.Gen.(list_size (int_bound 32) verdict))
      (fun b -> String.equal (Committee.ser_batch b) (ref_batch b));
    Alcotest.test_case "Committee.ser_batch of empty and 32-verdict batches"
      `Quick (fun () ->
        let full =
          List.init 32 (fun i -> { Committee.item = i - 3; commit = i mod 3 = 0 })
        in
        List.iter
          (fun b ->
            check Alcotest.string "batch" (ref_batch b) (Committee.ser_batch b))
          [ []; full ]);
    prop "Dmsg.ser_vote"
      QCheck.(pair int int)
      (fun (v_party, v_deal) ->
        String.equal
          (stmt Dmsg.ser_vote { Dmsg.v_party; v_deal })
          (Printf.sprintf "dvote|%d|%d" v_party v_deal));
    prop "Dmsg.ser_cb"
      QCheck.(pair int bool)
      (fun (c_deal, c_commit) ->
        String.equal
          (stmt Dmsg.ser_cb { Dmsg.c_deal; c_commit })
          (Printf.sprintf "dcb|%d|%b" c_deal c_commit));
    Alcotest.test_case "fixed statements" `Quick (fun () ->
        check Alcotest.string "inf" "G|-1|2|inf"
          (stmt Msg.ser_promise_g
             { Msg.g_escrow = -1; g_customer = 2; d = Sim.Sim_time.infinity });
        check Alcotest.string "true" "dec|7|true"
          (stmt Msg.ser_decision { Msg.dec_payment = 7; dec_commit = true });
        check Alcotest.string "false" "dcb|0|false"
          (stmt Dmsg.ser_cb { Dmsg.c_deal = 0; c_commit = false }));
    (* the bytes a writer leaves in a buffer, hashed where they lie, give
       the digest of the reference string: a writer that fits its buffer
       writes exactly its statement, and one that does not still reports
       the full length *)
    prop "the digest of the written bytes is that of the reference string"
      QCheck.(pair (triple int int time) small_nat)
      (fun ((g_escrow, g_customer, d), room) ->
        let g = { Msg.g_escrow; g_customer; d } in
        let want = ref_promise_g g in
        let buf = Bytes.create room in
        let len = Msg.ser_promise_g buf g in
        len = String.length want
        && (len > room
           || Hash.equal
                (Hash.finish_bytes Hash.start buf ~len)
                (Hash.of_string want)
              && Hash.matches_bytes Hash.start buf ~len (Hash.of_string want)));
  ]

(* [Auth.register] writes a signer's key prefix into a scratch buffer and
   hashes it in one pass. It must derive exactly the state of the
   string-built formula it replaced, kept here as the reference, or every
   key, MAC and pinned transcript would change. *)
let key_derivation_tests =
  let reference_key rng id =
    (* y is drawn before x: the registry's order *)
    let y = Sim.Rng.next_int64 rng in
    let x = Sim.Rng.next_int64 rng in
    let sid = string_of_int id in
    List.fold_left Hash.feed Hash.start
      [ "sk-"; sid; "-"; Hash.hex64 x; "-"; Hash.hex64 y; "|"; sid; "|" ]
  in
  (* MACs over the empty message are [finish key], one-to-one in the key
     state, so equal MACs mean equal keys *)
  let same_key signer key msg =
    Hash.equal
      (Auth.signature_mac (Auth.sign signer msg))
      (Hash.finish (Hash.feed key msg))
  in
  let id =
    QCheck.Gen.(
      oneof
        [
          small_nat;
          int;
          oneofl [ 0; -1; 9; 10; max_int; min_int; min_int + 1; 1_000_000_007 ];
        ])
  in
  let ids =
    QCheck.Gen.(map (List.sort_uniq compare) (list_size (int_range 1 12) id))
  in
  [
    qcheck
      (QCheck.Test.make ~count:500
         ~name:"register derives the string-built reference key"
         (QCheck.make
            ~print:(fun (seed, ids) ->
              Printf.sprintf "seed %d, ids [%s]" seed
                (String.concat "; " (List.map string_of_int ids)))
            QCheck.Gen.(pair int ids))
         (fun (seed, ids) ->
           let reg = Auth.create ~seed in
           let rng = Sim.Rng.create ~seed in
           List.for_all
             (fun id ->
               let s = Auth.register reg id in
               let key = reference_key rng id in
               same_key s key "" && same_key s key "G|1|2|30")
             ids));
  ]

(* A signed value's MAC is the MAC of its statement as a string: the
   writer path signs and verifies exactly as signing the reference string
   did. A 1,000-verdict batch makes a commit statement far longer than
   the scratch buffer starts, so it also grows the buffer. *)
let statement_tests =
  let batch =
    List.init 1_000 (fun i -> { Committee.item = (i * 7919) - 500; commit = i mod 3 <> 0 })
  in
  let same_as_string reg s ~put v want =
    let sv = Auth.sign_value s ~put v in
    Hash.equal
      (Auth.signature_mac sv.Auth.signature)
      (Auth.signature_mac (Auth.sign s want))
    && Auth.verify_value reg ~put sv
    && Auth.verify reg (Auth.signer_id s) want sv.Auth.signature
  in
  [
    qcheck
      (QCheck.Test.make ~count:300
         ~name:"a signed value carries the MAC of its reference string"
         QCheck.(pair (triple int int time) (pair int bool))
         (fun ((g_escrow, g_customer, d), (round, v)) ->
           let reg = Auth.create ~seed:9 in
           let s = Auth.register reg 4 in
           let g = { Msg.g_escrow; g_customer; d } in
           same_as_string reg s ~put:Msg.ser_promise_g g (ref_promise_g g)
           && same_as_string reg s ~put:(Dls.ser_echo Msg.ser_bool)
                { Dls.e_round = round; e_value = v }
                (Printf.sprintf "echo|%d|%s" round (Msg.ser_bool v))));
    Alcotest.test_case "a 1,000-verdict batch grows the scratch buffer" `Quick
      (fun () ->
        let reg = Auth.create ~seed:9 in
        let s = Auth.register reg 2 and other = Auth.register reg 3 in
        let body = { Dls.c_round = 5; c_value = batch } in
        let want = "commit|5|" ^ ref_batch batch in
        check Alcotest.bool "longer than the initial buffer" true
          (String.length want > 4_096);
        let put = Dls.ser_commit Committee.ser_batch in
        check Alcotest.bool "signs and verifies as the string" true
          (same_as_string reg s ~put body want);
        let sv = Auth.sign_value s ~put body in
        let flip i (v : Committee.verdict) =
          if i = 999 then { v with commit = not v.commit } else v
        in
        let tampered = { body with c_value = List.mapi flip batch } in
        check Alcotest.bool "the last verdict is bound" false
          (Auth.verify reg 2 (stmt put tampered) sv.Auth.signature);
        check Alcotest.bool "so is the signer" false
          (Auth.verify reg 2 want (Auth.sign_value other ~put body).Auth.signature);
        (* a short statement after the long one is not read past its end *)
        check Alcotest.bool "a short statement after it" true
          (same_as_string reg s ~put:Msg.ser_chi
             { Msg.x_payment = 1; x_bob = 2 } "chi|1|2"));
  ]

(* Signing and verifying run on every promise, certificate and vote, so
   they must not allocate beyond their results. *)
let per_call ?(rounds = 1_000) f =
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (f ()))
  done;
  int_of_float (Gc.minor_words () -. before) / rounds

let allocation_tests =
  [
    Alcotest.test_case "sign and verify stay within 24 words" `Quick
      (fun () ->
        let reg = Auth.create ~seed:4 in
        let s = Auth.register reg 3 in
        let msg = "0123456789abcdef" in
        let sg = Auth.sign s msg in
        (* warm up: first calls may trigger lazy init inside the runtime *)
        ignore (Auth.verify reg 3 msg sg);
        let sign_words = per_call (fun () -> Auth.sign s msg) in
        let verify_words = per_call (fun () -> Auth.verify reg 3 msg sg) in
        if sign_words > 24 then
          Alcotest.failf "Auth.sign allocates %d words per call" sign_words;
        if verify_words > 24 then
          Alcotest.failf "Auth.verify allocates %d words per call" verify_words);
    (* a registration keeps the signer, its key state and its table entry;
       the two draws are boxed, and the table's growth is amortised over
       the ids: no key-prefix string or per-piece hash state *)
    Alcotest.test_case "register stays within 24 words" `Quick (fun () ->
        let reg = Auth.create ~seed:4 in
        ignore (Auth.register reg (-1));
        let rounds = 1_000 in
        let before = Gc.minor_words () in
        for id = 0 to rounds - 1 do
          ignore (Sys.opaque_identity (Auth.register reg (max_int - id)))
        done;
        let words = int_of_float (Gc.minor_words () -. before) / rounds in
        if words > 24 then
          Alcotest.failf "Auth.register allocates %d words per call" words);
    (* a check writes the statement into the scratch buffer and hashes it
       in place; signing allocates the digest (16 bytes: 3 words and a
       header), the signature (2 fields) and the signed record (3
       fields) *)
    Alcotest.test_case "a signed promise is checked without allocating"
      `Quick (fun () ->
        let reg = Auth.create ~seed:4 in
        let s = Auth.register reg 3 in
        let g = { Msg.g_escrow = 3; g_customer = 1_000_001; d = 12_345 } in
        let sv = Auth.sign_value s ~put:Msg.ser_promise_g g in
        check Alcotest.bool "genuine" true
          (Auth.verify_value reg ~put:Msg.ser_promise_g sv);
        let before = Gc.minor_words () in
        for _ = 1 to 1_000 do
          ignore (Sys.opaque_identity (Auth.verify_value reg ~put:Msg.ser_promise_g sv))
        done;
        let words = int_of_float (Gc.minor_words () -. before) in
        if words > 0 then
          Alcotest.failf "1,000 checks allocated %d words" words;
        let sign_words =
          per_call (fun () -> Auth.sign_value s ~put:Msg.ser_promise_g g)
        in
        if sign_words > 4 + 3 + 4 then
          Alcotest.failf "a signed promise allocates %d words (budget 11)"
            sign_words);
  ]

let () =
  Alcotest.run "xcrypto"
    [
      ("hash", hash_tests);
      ("auth", auth_tests);
      ("hashlock", hashlock_tests);
      ("vectors", kat_tests);
      ("serial", serialiser_tests);
      ("signed", statement_tests);
      ("keys", key_derivation_tests);
      ("alloc", allocation_tests);
    ]

(* Tests for the quorum-system subsystem: the Byzantine quorum laws on
   every constructor family (checked by brute force on small systems),
   the batched pipelined committee runner, and the golden pin that the
   quorum-parametrized consensus is byte-identical to the pre-refactor
   2f+1 committee TM on seeded scenarios. *)

module QS = Quorum_system
module C = Quorum.Committee
module Runner = Protocols.Runner
module Weak_protocol = Protocols.Weak_protocol
open Xcrypto

let check = Alcotest.check

(* a label for a quorum system in failure messages *)
let describe qs =
  Printf.sprintf "%s(n=%d,f=%d)" (QS.family_name qs) (QS.size qs)
    (QS.fault_bound qs)
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------ quorum laws *)

(* Brute force over all subsets of a small system: every pair of quorums
   must intersect in at least f+1 processes (so any two certificates
   share an honest signer), and the complement of any f processes must
   still be a quorum (so f failures never strand the system). is_quorum
   is monotone, so checking every accepting subset covers every quorum. *)
let laws_by_brute_force qs =
  let n = QS.size qs in
  let f = QS.fault_bound qs in
  assert (n <= 12);
  let subsets = 1 lsl n in
  let present mask = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
  let quorums = ref [] in
  for mask = 0 to subsets - 1 do
    if QS.is_quorum qs ~present:(present mask) then quorums := mask :: !quorums
  done;
  let popcount mask =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then incr c
    done;
    !c
  in
  let intersection_ok =
    List.for_all
      (fun a -> List.for_all (fun b -> popcount (a land b) >= f + 1) !quorums)
      !quorums
  in
  let availability_ok =
    (* every f-subset of faulty processes leaves a quorum alive *)
    let rec faulty_masks k lo =
      if k = 0 then [ 0 ]
      else
        List.concat_map
          (fun i ->
            List.map (fun m -> m lor (1 lsl i)) (faulty_masks (k - 1) (i + 1)))
          (List.init (max 0 (n - lo)) (fun d -> lo + d))
    in
    List.for_all
      (fun faulty ->
        QS.is_quorum qs ~present:(present (lnot faulty land (subsets - 1))))
      (faulty_masks f 0)
  in
  !quorums <> [] && intersection_ok && availability_ok

let arbitrary_system =
  let open QCheck.Gen in
  let majority =
    let* n = int_range 1 8 in
    let* f = int_range 0 2 in
    let* q = int_range 1 n in
    return (QS.majority ~q ~n ~f ())
  in
  let weighted =
    let* n = int_range 1 6 in
    let* weights = array_repeat n (int_range 1 3) in
    let* f = int_range 0 2 in
    let total = Array.fold_left ( + ) 0 weights in
    let* threshold = int_range 1 total in
    return (QS.weighted ~threshold ~weights ~f ())
  in
  let grid =
    let* rows = int_range 1 3 in
    let* cols = int_range 1 3 in
    let* f = int_range 0 2 in
    let* qr = int_range 1 rows in
    let* qc = int_range 1 cols in
    return (QS.grid ~qr ~qc ~rows ~cols ~f ())
  in
  QCheck.make
    ~print:(fun qs -> describe qs)
    (oneof [ majority; weighted; grid ])

(* --------------------------------------------- committee test world *)

(* The committee module is a pure state machine, so a test world is an
   array of replicas plus a message queue drained by hand; dropping or
   forging messages is just not enqueueing / enqueueing them. *)
type world = {
  coms : C.t array;
  registry : Auth.registry;
  signers : Auth.signer array;
  queue : (int * int * C.msg) Queue.t;  (* from, to, msg *)
  mutable timers : (int * int * int) list;  (* replica, slot, round *)
}

let effects w ~from_ effs =
  let n = Array.length w.coms in
  List.iter
    (fun eff ->
      match eff with
      | C.Send { to_; m } -> Queue.add (from_, to_, m) w.queue
      | C.Broadcast m ->
          for k = 0 to n - 1 do
            Queue.add (from_, k, m) w.queue
          done
      | C.Set_slot_timer { slot; round; _ } ->
          w.timers <- (from_, slot, round) :: w.timers
      | C.Certified _ -> ())
    effs

let make_world ?(n = 4) ?(f = 1) ?(batch_cap = 4) ?(pipeline = 2) () =
  let registry = Auth.create ~seed:11 in
  let auth_ids = Array.init n Fun.id in
  let signers = Array.init n (fun i -> Auth.register registry i) in
  let cfg i =
    {
      C.qs = QS.majority ~n ~f ();
      self = i;
      auth_ids;
      registry;
      signer = signers.(i);
      batch_cap;
      pipeline;
      base_timeout = 50;
    }
  in
  {
    coms = Array.init n (fun i -> C.create (cfg i));
    registry;
    signers;
    queue = Queue.create ();
    timers = [];
  }

let drain ?(now = 0) ?(drop = fun ~from_:_ ~to_:_ _ -> false) w =
  let budget = ref 100_000 in
  while not (Queue.is_empty w.queue) do
    decr budget;
    if !budget < 0 then Alcotest.fail "drain: message storm";
    let from_, to_, m = Queue.pop w.queue in
    if not (drop ~from_ ~to_ m) then
      effects w ~from_:to_ (C.on_msg w.coms.(to_) ~now ~from_ m)
  done

let request w ?(now = 0) i v = effects w ~from_:i (C.request w.coms.(i) ~now v)

(* an item's decided fate and the slot that certified it *)
let fate com ~item =
  Option.map
    (fun d -> (d.C.fate, d.C.decided_in))
    (C.decision_of com ~item)

(* ------------------------------------------------- golden trace pins *)

(* The committee TM ran on a hardwired 2f+1 majority before the quorum
   refactor; these digests were captured on that implementation, so the
   DLS-over-quorum-system path must reproduce them byte for byte. The
   scenario is E13's: a 2|2 committee split healing mid-run. *)
let golden_pins =
  [
    (1, 11_549, "60b3b63eeaa7eca98da494338a30ab37");
    (2, 13_372, "1f968ffc55fe8c3b82b320442c0e6c44");
    (3, 13_088, "3dba97102024b65152992656d78807ed");
  ]

let e13_run ~seed ~tm =
  let hops = 2 in
  let gst_rng = Sim.Rng.create ~seed:(seed * 7919) in
  let gst = Sim.Rng.int_in gst_rng ~lo:0 ~hi:1_000 in
  let plan =
    match Faults.Fault_plan.of_string "part 5,6|7,8@250+500" with
    | Ok p -> p
    | Error e -> invalid_arg e
  in
  let cfg =
    {
      (Runner.default_config ~hops ~seed) with
      Runner.network = Runner.Psync { gst };
      fault_plan = Some plan;
    }
  in
  let wcfg = { Weak_protocol.default_config with tm; patience = 4_000 } in
  Runner.run cfg (Runner.Weak wcfg)

let e13_trace ~seed ~tm =
  Fmt.str "%a"
    (Sim.Trace.pp ~msg:Protocols.Msg.pp ~obs:Protocols.Obs.pp)
    (e13_run ~seed ~tm).Runner.trace

(* Definition 2's verdicts on a run, as (property, applicable, holds) *)
let verdicts o =
  List.map
    (fun (v : Props.Verdict.t) -> (v.property, v.applicable, v.holds))
    (Props.Payment_props.check (Props.Payment_props.view o))

(* ------------------------------------------------ certificate checks *)

(* A 16-replica majority committee tolerating 5 faults (quorum 11), the
   committee of the shared-committee load workloads, and certificates
   signed by hand over a 32-verdict batch. *)
module Dls = Consensus.Dls
module Committee_tm = Protocols.Committee_tm

let big_registry = Auth.create ~seed:23
let big_signers = Array.init 16 (fun i -> Auth.register big_registry i)
let big_qs = QS.majority ~n:16 ~f:5 ()
let big_batch =
  List.init 32 (fun i -> { C.item = 100 + i; commit = i mod 5 <> 0 })

let commit_vote ?(round = 0) ?(batch = big_batch) i =
  Auth.sign_value big_signers.(i)
    ~put:(Dls.ser_commit C.ser_batch)
    { Dls.c_round = round; c_value = batch }

let big_cert ~signers =
  {
    Dls.d_value = big_batch;
    d_round = 0;
    d_sigs = List.init signers commit_vote;
  }

let tm_config =
  {
    Committee_tm.qs = big_qs;
    registry = big_registry;
    batch_cap = 32;
    pipeline = 4;
    base_timeout = 50;
    reply_to = (fun _ -> [||]);
    hops_of = (fun _ -> 2);
  }

let big_committee_config =
  {
    C.qs = big_qs;
    self = 0;
    auth_ids = Array.init (Quorum_system.size tm_config.Committee_tm.qs) Fun.id;
    registry = big_registry;
    signer = big_signers.(0);
    batch_cap = 32;
    pipeline = 4;
    base_timeout = 50;
  }

(* Replace the [k]-th signature of a certificate. *)
let with_sig k sv (dc : C.batch Dls.decision_cert) =
  let d_sigs = List.mapi (fun i s -> if i = k then sv else s) dc.Dls.d_sigs in
  { dc with Dls.d_sigs }

let words_per_call ~rounds f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (f ()))
  done;
  int_of_float (Gc.minor_words () -. before) / rounds

let verifier_tests =
  [
    Alcotest.test_case "a warm memo still rejects every tampered copy" `Quick
      (fun () ->
        (* exactly a quorum of signatures, so losing any one must fail *)
        let cert = big_cert ~signers:11 in
        let verify = Committee_tm.verify tm_config ~signer:big_signers.(0) in
        check Alcotest.bool "genuine" true (verify cert);
        check Alcotest.bool "genuine again" true (verify cert);
        let reject name dc =
          check Alcotest.bool name false (verify dc);
          (* and a second time, in case a rejection were remembered *)
          check Alcotest.bool (name ^ " again") false (verify dc)
        in
        reject "one forged signature"
          (with_sig 4
             (Auth.forge_value ~author:4
                { Dls.c_round = 0; c_value = big_batch })
             cert);
        reject "duplicated author" (with_sig 4 (commit_vote 3) cert);
        reject "signed round differs" { cert with Dls.d_round = 1 };
        reject "one vote for another round"
          (with_sig 4 (commit_vote ~round:1 4) cert);
        reject "one verdict differs"
          {
            cert with
            Dls.d_value =
              List.mapi
                (fun i v ->
                  if i = 7 then { v with C.commit = not v.C.commit } else v)
                big_batch;
          };
        (* a relayed copy: equal in every field, physically distinct *)
        let relayed =
          {
            Dls.d_value =
              List.map (fun v -> { v with C.item = v.C.item }) big_batch;
            d_round = 0;
            d_sigs = List.map Fun.id cert.Dls.d_sigs;
          }
        in
        check Alcotest.bool "relayed copy is a distinct value" false
          (relayed == cert);
        check Alcotest.bool "relayed copy accepted" true (verify relayed);
        check Alcotest.bool "fresh verifier agrees" true
          (Committee_tm.verify tm_config ~signer:big_signers.(0) relayed));
    Alcotest.test_case "a certificate is serialised once, a memo hit is free"
      `Quick (fun () ->
        let cert = big_cert ~signers:16 in
        let body = { Dls.c_round = 0; c_value = big_batch } in
        let statement = Auth.statement (Dls.ser_commit C.ser_batch) in
        let ser_words = words_per_call ~rounds:200 (fun () -> statement body) in
        let sig_words =
          let sv = commit_vote 0 in
          let bytes = statement body in
          words_per_call ~rounds:200 (fun () ->
              Auth.verify big_registry 0 bytes sv.Auth.signature)
        in
        let check_cert = C.verify_cert big_committee_config in
        check Alcotest.bool "verifies" true (check_cert cert);
        let verify_words =
          words_per_call ~rounds:200 (fun () -> check_cert cert)
        in
        (* one body serialisation and 16 signature checks, with room for the
           presence vector; a body per signature would be 16 of them *)
        let budget = (2 * ser_words) + (16 * sig_words) + 64 in
        if verify_words > budget then
          Alcotest.failf
            "verifying allocates %d words (one body is %d, one signature \
             check %d, budget %d)"
            verify_words ser_words sig_words budget;
        let verify = Committee_tm.verify tm_config ~signer:big_signers.(0) in
        check Alcotest.bool "warm" true (verify cert);
        let before = Gc.minor_words () in
        for _ = 1 to 1_000 do
          ignore (Sys.opaque_identity (verify cert))
        done;
        let delta = int_of_float (Gc.minor_words () -. before) in
        (* allow a few words for the Gc.minor_words calls themselves *)
        if delta > 16 then
          Alcotest.failf "1000 memo hits allocated %d words" delta);
  ]

(* A 16-replica majority committee deciding 32 verdicts, driven through
   the committee directly with every message delivered in FIFO order: the
   first request opens slot 0 alone and the other 31 ship as slot 1.
   Returns the minor words the replicas' handlers allocated per echo or
   commit vote they handled, the votes handled, the replicas that decided
   both slots, and the most words and the number of the quiet votes: those
   delivered to an open slot that answer nothing and are not the first of
   their kind the replica saw for the slot, so they open no bucket,
   complete no quorum (that sends a commit vote or certifies the slot) and
   send nothing. *)
let words_per_vote () =
  let w = make_world ~n:16 ~f:5 ~batch_cap:32 ~pipeline:1 () in
  for item = 0 to 31 do
    request w 0 { C.item; commit = item mod 5 <> 0 }
  done;
  let votes = ref 0 and words = ref 0. in
  let seen = Hashtbl.create 64 in
  let quiet = ref 0 and quiet_max = ref 0 in
  while not (Queue.is_empty w.queue) do
    let from_, to_, m = Queue.pop w.queue in
    let com = w.coms.(to_) in
    (* slots decide in order, so a slot is open until this many certs *)
    let is_open = (C.stats com).C.certs <= m.C.slot in
    let before = Gc.minor_words () in
    let effs = C.on_msg com ~now:0 ~from_ m in
    let after = Gc.minor_words () in
    let vote kind =
      incr votes;
      words := !words +. (after -. before);
      let key = (to_, m.C.slot, kind) in
      if is_open && effs = [] && Hashtbl.mem seen key then begin
        incr quiet;
        quiet_max := max !quiet_max (int_of_float (after -. before))
      end;
      Hashtbl.replace seen key ()
    in
    (match m.C.dm with
    | Dls.Echo _ -> vote `Echo
    | Dls.Commit _ -> vote `Commit
    | Dls.Propose _ | Dls.New_round _ -> ());
    effects w ~from_:to_ effs
  done;
  let decided =
    Array.fold_left
      (fun k com -> if (C.stats com).C.certs = 2 then k + 1 else k)
      0 w.coms
  in
  (int_of_float !words / max 1 !votes, !votes, decided, !quiet_max, !quiet)

let allocation_tests =
  [
    Alcotest.test_case "a notary vote costs about one signature check" `Quick
      (fun () ->
        let per_vote, votes, decided, _, _ = words_per_vote () in
        check Alcotest.int "every replica decided both slots" 16 decided;
        (* per slot, 16 echoes and 16 commit votes reach each replica *)
        check Alcotest.int "votes handled" (2 * 2 * 16 * 16) votes;
        (* about 11 words: a bucket per (round, value), the commit vote a
           quorum triggers and the QC or certificate it completes; a
           signature check allocates nothing. Rebuilding a presence
           vector and a QC per vote, re-verifying the first QC and
           serialising the batch per bucket cost about fifteen times
           that. *)
        if per_vote > 20 then
          Alcotest.failf "a handled vote allocates %d words (budget 20)"
            per_vote);
    Alcotest.test_case "a signature check allocates nothing" `Quick
      (fun () ->
        let sv = commit_vote 3 in
        let bytes =
          Auth.statement (Dls.ser_commit C.ser_batch) sv.Auth.payload
        in
        check Alcotest.bool "verifies" true
          (Auth.verify big_registry 3 bytes sv.Auth.signature);
        check Alcotest.int "words per accepted check" 0
          (words_per_call ~rounds:1_000 (fun () ->
               Auth.verify big_registry 3 bytes sv.Auth.signature));
        check Alcotest.int "words per rejected check" 0
          (words_per_call ~rounds:1_000 (fun () ->
               Auth.verify big_registry 4 bytes sv.Auth.signature)));
    Alcotest.test_case "a vote that changes nothing allocates almost nothing"
      `Quick (fun () ->
        let _, _, _, worst, quiet = words_per_vote () in
        (* per replica and slot, about 14 echoes and 9 commit votes *)
        if quiet < 500 then
          Alcotest.failf "only %d quiet votes were handled" quiet;
        (* the signature check, the bucket lookup and recording the
           signature allocate nothing; a few words of slack *)
        if worst > 4 then
          Alcotest.failf "a quiet vote allocates up to %d words (budget 4)"
            worst);
  ]

(* ------------------------------------------------ slot lifecycle *)

(* Decide one slot per item, one at a time, while the host forgets each
   item once its certificate is out, as the load harness does when the
   item's payment retires. *)
let decide_items w items =
  List.iter
    (fun item ->
      request w 0 { C.item; commit = true };
      drain w;
      C.forget w.coms.(0) ~item)
    items

let lifecycle_tests =
  [
    Alcotest.test_case "a decided slot ignores late messages and timeouts"
      `Quick (fun () ->
        (* keep one copy of every message of slot 0 that each replica
           handled, to replay once the slot is decided *)
        let w = make_world ~batch_cap:1 ~pipeline:1 () in
        request w 0 { C.item = 0; commit = true };
        let seen = ref [] in
        while not (Queue.is_empty w.queue) do
          let ((from_, to_, m) as delivery) = Queue.pop w.queue in
          seen := delivery :: !seen;
          effects w ~from_:to_ (C.on_msg w.coms.(to_) ~now:0 ~from_ m)
        done;
        let late_to k kind =
          match
            List.find_opt
              (fun (_, to_, m) -> to_ = k && C.tag_of_msg m = kind)
              !seen
          with
          | Some (from_, _, m) -> (from_, m)
          | None -> Alcotest.failf "replica %d handled no %s" k kind
        in
        let new_round =
          { C.slot = 0; dm = Dls.New_round { round = 1; locked = None } }
        in
        List.iter
          (fun k ->
            let com = w.coms.(k) in
            check Alcotest.int "slot 0 decided" 1 (C.stats com).C.certs;
            let slots = C.slot_count com in
            List.iter
              (fun kind ->
                let from_, m = late_to k kind in
                check Alcotest.int
                  (Printf.sprintf "replica %d: late %s" k kind)
                  0
                  (List.length (C.on_msg com ~now:50 ~from_ m)))
              [ "quorum:propose"; "quorum:echo"; "quorum:commit" ];
            check Alcotest.int
              (Printf.sprintf "replica %d: late new-round" k)
              0
              (List.length (C.on_msg com ~now:50 ~from_:1 new_round));
            check Alcotest.int
              (Printf.sprintf "replica %d: late timeout" k)
              0
              (List.length (C.on_slot_timeout com ~now:50 ~slot:0 ~round:0));
            check Alcotest.int
              (Printf.sprintf "replica %d: no slot re-opened" k)
              slots (C.slot_count com))
          [ 0; 1 ];
        (* the pipeline lane is free: the next request opens slot 1, and
           every replica decides it *)
        let effs = C.request w.coms.(0) ~now:60 { C.item = 1; commit = true } in
        check Alcotest.bool "next request opens a slot" true (effs <> []);
        effects w ~from_:0 effs;
        drain ~now:60 w;
        Array.iteri
          (fun k com ->
            check Alcotest.int (Printf.sprintf "replica %d slots" k) 2
              (C.slot_count com);
            check Alcotest.int (Printf.sprintf "replica %d decided" k) 2
              (C.stats com).C.certs)
          w.coms;
        check
          Alcotest.(option (pair bool int))
          "item 1 in slot 1" (Some (true, 1))
          (fate w.coms.(0) ~item:1));
    Alcotest.test_case "a forgotten item stays decided but unanswered"
      `Quick (fun () ->
        let w = make_world () in
        request w 0 { C.item = 3; commit = true };
        drain w;
        let seq = w.coms.(0) in
        check
          Alcotest.(option (pair bool int))
          "decided" (Some (true, 0)) (fate seq ~item:3);
        C.forget seq ~item:3;
        check
          Alcotest.(option (pair bool int))
          "forgotten" None (fate seq ~item:3);
        check Alcotest.bool "duplicate dropped" true
          (C.request seq ~now:0 { C.item = 3; commit = true } = []);
        check Alcotest.bool "conflict dropped" true
          (C.request seq ~now:0 { C.item = 3; commit = false } = []);
        check Alcotest.int "no slot opened" 1 (C.slot_count seq);
        (* forgetting an item without a decision changes nothing *)
        request w 0 { C.item = 4; commit = false };
        C.forget seq ~item:4;
        drain w;
        check
          Alcotest.(option (pair bool int))
          "undecided item kept" (Some (false, 1)) (fate seq ~item:4));
    Alcotest.test_case "a replica's memory does not grow with decided slots"
      `Quick (fun () ->
        let w = make_world ~batch_cap:1 ~pipeline:1 () in
        let words () =
          Array.map (fun com -> Obj.reachable_words (Obj.repr com)) w.coms
        in
        decide_items w (List.init 8 Fun.id);
        let at8 = words () in
        decide_items w (List.init 56 (fun k -> 8 + k));
        let at64 = words () in
        Array.iteri
          (fun k com ->
            check Alcotest.int (Printf.sprintf "replica %d decided" k) 64
              (C.stats com).C.certs;
            (* a tombstone costs nothing once the watermark passes it, and
               a forgotten item one bit *)
            let per_slot = (at64.(k) - at8.(k)) / 56 in
            if at64.(k) - at8.(k) > 2 * 56 then
              Alcotest.failf
                "replica %d grew from %d to %d words over 56 slots (%d per \
                 slot)"
                k at8.(k) at64.(k) per_slot)
          w.coms);
  ]

(* ------------------------------------------------------------ tests *)

let () =
  Alcotest.run "quorum"
    [
      ( "laws",
        [
          Alcotest.test_case "constructors validate the quorum laws" `Quick
            (fun () ->
              let ok qs = check Alcotest.bool (describe qs) true
                  (QS.validate qs = Ok ())
              and bad qs = check Alcotest.bool (describe qs) true
                  (Result.is_error (QS.validate qs))
              in
              ok (QS.majority ~n:4 ~f:1 ());
              ok (QS.majority ~n:7 ~f:2 ());
              ok (QS.majority ~n:100 ~f:33 ());
              ok (QS.weighted ~weights:[| 2; 2; 1; 1; 1 |] ~f:1 ());
              ok (QS.grid ~rows:3 ~cols:3 ~f:1 ());
              (* n = 3f is one replica short of a majority system *)
              bad (QS.majority ~n:3 ~f:1 ());
              (* a heavyweight makes quorums intersect in a single
                 process: one Byzantine replica could equivocate *)
              bad (QS.weighted ~weights:[| 3; 1; 1; 1; 1 |] ~f:1 ());
              (* a 4x4 grid cannot survive f=3: the quorums are there
                 but three faults can pin every row *)
              bad (QS.grid ~rows:4 ~cols:4 ~f:3 ());
              bad (QS.majority ~n:4 ~f:1 ~q:2 ()));
          Alcotest.test_case "validated systems satisfy the laws by brute \
                             force" `Quick (fun () ->
              List.iter
                (fun qs ->
                  check Alcotest.bool (describe qs) true
                    (laws_by_brute_force qs))
                [
                  QS.majority ~n:4 ~f:1 ();
                  QS.majority ~n:7 ~f:2 ();
                  QS.weighted ~weights:[| 2; 2; 1; 1; 1 |] ~f:1 ();
                  QS.grid ~rows:3 ~cols:3 ~f:1 ();
                ]);
          qcheck
            (QCheck.Test.make
               ~name:"validate accepts only law-abiding systems" ~count:500
               arbitrary_system (fun qs ->
                 (* brute force is the spec: validate may reject a
                    law-abiding system only never accept a violator *)
                 match QS.validate qs with
                 | Ok () -> laws_by_brute_force qs
                 | Error _ -> QCheck.assume_fail ()));
        ] );
      ("alloc", allocation_tests);
      ( "committee",
        [
          Alcotest.test_case "a burst batches into one verified certificate"
            `Quick (fun () ->
              (* pipeline 1: the first request opens slot 0 alone; the
                 rest queue behind the busy lane and ship as one batch *)
              let w = make_world ~batch_cap:4 ~pipeline:1 () in
              for item = 0 to 3 do
                request w ~now:5 0 { C.item; commit = item mod 2 = 0 }
              done;
              drain ~now:9 w;
              let seq = w.coms.(0) in
              check Alcotest.int "two slots" 2 (C.slot_count seq);
              check Alcotest.int "two certs" 2 (C.stats seq).C.certs;
              (match C.decision_of seq ~item:1 with
              | None -> Alcotest.fail "no certificate"
              | Some { C.decided_in; cert; _ } ->
                  check Alcotest.int "slot 1's" 1 decided_in;
                  check Alcotest.int "batch of 3" 3
                    (List.length cert.Consensus.Dls.d_value);
                  (* any holder of the registry can verify, no quorum
                     participation needed *)
                  check Alcotest.bool "verifies" true
                    (C.verify_cert
                       {
                         C.qs = QS.majority ~n:4 ~f:1 ();
                         self = 1;
                         auth_ids = Array.init 4 Fun.id;
                         registry = w.registry;
                         signer = w.signers.(1);
                         batch_cap = 4;
                         pipeline = 2;
                         base_timeout = 50;
                       }
                       cert));
              for item = 0 to 3 do
                match fate seq ~item with
                | Some (commit, slot) ->
                    check Alcotest.bool "fate" (item mod 2 = 0) commit;
                    check Alcotest.int "slot" (if item = 0 then 0 else 1) slot
                | None -> Alcotest.failf "item %d undecided" item
              done;
              (* slot 0 opened at the request (now=5) and certified
                 during the drain (now=9); slot 1 opened and certified
                 within the drain *)
              check Alcotest.int "cert latency from slot open" 4
                (C.stats seq).C.cert_lat_sum;
              check Alcotest.int "longest cert latency" 4
                (C.stats seq).C.cert_lat_max);
          Alcotest.test_case "pipeline depth caps concurrently open slots"
            `Quick (fun () ->
              let w = make_world ~batch_cap:1 ~pipeline:2 () in
              for item = 0 to 4 do
                request w 0 { C.item; commit = true }
              done;
              (* nothing delivered yet: demand for 5 slots, lanes for 2 *)
              check Alcotest.int "open slots capped" 2
                (C.slot_count w.coms.(0));
              drain w;
              check Alcotest.int "all slots drained" 5
                (C.slot_count w.coms.(0));
              check Alcotest.int "all decided" 5
                (C.stats w.coms.(0)).C.certs);
          Alcotest.test_case "duplicate requests are dropped" `Quick (fun () ->
              let w = make_world () in
              request w 0 { C.item = 7; commit = true };
              check Alcotest.bool "duplicate ignored" true
                (C.request w.coms.(0) ~now:0 { C.item = 7; commit = true } = []);
              check Alcotest.bool "conflict ignored" true
                (C.request w.coms.(0) ~now:0 { C.item = 7; commit = false } = []);
              drain w;
              check
                Alcotest.(option (pair bool int))
                "first verdict won" (Some (true, 0))
                (fate w.coms.(0) ~item:7));
          Alcotest.test_case "tampered certificates are rejected" `Quick
            (fun () ->
              let w = make_world ~batch_cap:2 () in
              request w 0 { C.item = 0; commit = true };
              request w 0 { C.item = 1; commit = true };
              drain w;
              let cert =
                match C.decision_of w.coms.(0) ~item:0 with
                | Some { C.decided_in = 0; cert; _ } -> cert
                | _ -> Alcotest.fail "no certificate for slot 0"
              in
              let cfg =
                {
                  C.qs = QS.majority ~n:4 ~f:1 ();
                  self = 0;
                  auth_ids = Array.init 4 Fun.id;
                  registry = w.registry;
                  signer = w.signers.(0);
                  batch_cap = 2;
                  pipeline = 2;
                  base_timeout = 50;
                }
              in
              check Alcotest.bool "genuine cert verifies" true
                (C.verify_cert cfg cert);
              let flipped =
                {
                  cert with
                  Consensus.Dls.d_value =
                    List.map
                      (fun v -> { v with C.commit = not v.C.commit })
                      cert.Consensus.Dls.d_value;
                }
              in
              check Alcotest.bool "flipped verdicts rejected" false
                (C.verify_cert cfg flipped);
              let wrong_registry =
                { cfg with C.registry = Auth.create ~seed:12 }
              in
              check Alcotest.bool "foreign registry rejected" false
                (C.verify_cert wrong_registry cert));
          Alcotest.test_case "foreign-batch decision requeues uncovered items"
            `Quick (fun () ->
              (* the sequencer proposes [0;1] for slot 0, but a forged
                 propose (channel-authenticated as the sequencer — what a
                 Byzantine sequencer could send) routes [9] to the other
                 replicas, whose 3-strong quorum decides it without the
                 sequencer's help. The sequencer must adopt that foreign
                 certificate and requeue the uncovered items into a fresh
                 slot rather than lose them. *)
              let w = make_world ~batch_cap:2 ~pipeline:1 () in
              request w 0 { C.item = 0; commit = true };
              request w 0 { C.item = 1; commit = true };
              (* replace the genuine round-0 propose with the forgery *)
              Queue.clear w.queue;
              let forged =
                {
                  C.slot = 0;
                  dm =
                    Consensus.Dls.Propose
                      {
                        round = 0;
                        value = [ { C.item = 9; commit = false } ];
                        justif = None;
                      };
                }
              in
              for k = 1 to 3 do
                Queue.add (0, k, forged) w.queue
              done;
              drain w;
              let seq = w.coms.(0) in
              check
                Alcotest.(option (pair bool int))
                "foreign item decided" (Some (false, 0))
                (fate seq ~item:9);
              check Alcotest.bool "requeued item 0" true
                (match fate seq ~item:0 with
                | Some (true, slot) -> slot > 0
                | _ -> false);
              check Alcotest.bool "requeued item 1" true
                (match fate seq ~item:1 with
                | Some (true, slot) -> slot > 0
                | _ -> false);
              check Alcotest.int "two certificates" 2 (C.stats seq).C.certs);
          Alcotest.test_case "shared-mode workload spec roundtrips" `Quick
            (fun () ->
              let spec =
                "payments=64 hops=2 value=1000 commission=10 \
                 arrival=burst:64:1 mix=shared policy=reserve cap=0 \
                 liquidity=0 patience=100000 stuck=0 drift=0 gst=none \
                 committee=majority:16:5:32:4"
              in
              match Traffic.Workload.of_string spec with
              | Error e -> Alcotest.fail e
              | Ok w ->
                  (match w.Traffic.Workload.committee with
                  | Some c ->
                      check Alcotest.string "family" "majority"
                        c.Traffic.Workload.c_family;
                      check Alcotest.int "size" 16 c.Traffic.Workload.c_size;
                      check Alcotest.int "f" 5 c.Traffic.Workload.c_f;
                      check Alcotest.int "batch" 32 c.Traffic.Workload.c_batch;
                      check Alcotest.int "pipeline" 4
                        c.Traffic.Workload.c_pipeline;
                      check Alcotest.int "faulty" 0
                        c.Traffic.Workload.c_faulty
                  | None -> Alcotest.fail "committee spec lost");
                  check Alcotest.bool "roundtrip" true
                    (Traffic.Workload.of_string (Traffic.Workload.to_string w)
                    = Ok w));
        ] );
      ("verifier", verifier_tests);
      ("lifecycle", lifecycle_tests);
      ( "golden",
        [
          Alcotest.test_case
            "quorum-parametrized DLS is byte-identical to the pre-refactor \
             committee TM" `Quick (fun () ->
              List.iter
                (fun (seed, len, digest) ->
                  let rendered =
                    e13_trace ~seed ~tm:(Weak_protocol.Committee { f = 1 })
                  in
                  check Alcotest.int
                    (Printf.sprintf "seed %d length" seed)
                    len (String.length rendered);
                  check Alcotest.string
                    (Printf.sprintf "seed %d digest" seed)
                    digest
                    (Digest.to_hex (Digest.string rendered)))
                golden_pins);
          Alcotest.test_case
            "Committee {f} is the majority quorum system, trace for trace"
            `Quick (fun () ->
              List.iter
                (fun seed ->
                  let a =
                    e13_trace ~seed ~tm:(Weak_protocol.Committee { f = 1 })
                  in
                  let b =
                    e13_trace ~seed
                      ~tm:
                        (Weak_protocol.Quorum
                           { qs = QS.majority ~n:4 ~f:1 () })
                  in
                  check Alcotest.string
                    (Printf.sprintf "seed %d" seed)
                    (Digest.to_hex (Digest.string a))
                    (Digest.to_hex (Digest.string b));
                  (* the same run must be judged the same way: a quorum
                     TM within its fault bound is trusted *)
                  let judged tm = verdicts (e13_run ~seed ~tm) in
                  check
                    Alcotest.(list (triple string bool bool))
                    (Printf.sprintf "seed %d verdicts" seed)
                    (judged (Weak_protocol.Committee { f = 1 }))
                    (judged
                       (Weak_protocol.Quorum
                          { qs = QS.majority ~n:4 ~f:1 () })))
                [ 1; 2; 3 ]);
        ] );
    ]

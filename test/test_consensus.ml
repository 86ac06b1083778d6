(* Tests for the DLS-style committee consensus.

   The module is a pure state machine, so these tests drive replica sets
   by hand through a tiny dispatcher: effects become queued messages,
   round timers are fired explicitly, and Byzantine behaviour is injected
   as raw messages. Safety assertions (agreement, certificate validity)
   are checked against every replica that decided. *)

module Dls = Consensus.Dls
open Xcrypto

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

type world = {
  cfgs : string Dls.config array;
  replicas : string Dls.t array;
  queue : (int * int * string Dls.msg) Queue.t;  (* from, to, msg *)
  mutable decisions : (int * string Dls.decision_cert) list;
  mutable pending_timers : (int * int) list;  (* replica, round *)
}

let make_world ?(n = 4) ?(f = 1) ?qs ?(validate = fun _ -> true) () =
  let registry = Auth.create ~seed:11 in
  let auth_ids = Array.init n Fun.id in
  let signers = Array.init n (fun i -> Auth.register registry i) in
  let qs =
    match qs with Some qs -> qs | None -> Quorum_system.majority ~n ~f ()
  in
  let cfgs =
    Array.init n (fun i ->
        {
          Dls.qs;
          self = i;
          auth_ids;
          registry;
          signer = signers.(i);
          ser = Fun.id;
          equal = String.equal;
          validate;
          base_timeout = 100;
        })
  in
  {
    cfgs;
    replicas = Array.map Dls.create cfgs;
    queue = Queue.create ();
    decisions = [];
    pending_timers = [];
  }

let handle w from effects =
  List.iter
    (fun eff ->
      match eff with
      | Dls.Send { to_; m } -> Queue.add (from, to_, m) w.queue
      | Dls.Broadcast m ->
          Array.iteri (fun to_ _ -> Queue.add (from, to_, m) w.queue) w.replicas
      | Dls.Set_round_timer { round; _ } ->
          w.pending_timers <- (from, round) :: w.pending_timers
      | Dls.Decided dc -> w.decisions <- (from, dc) :: w.decisions)
    effects

let start w i v = handle w i (Dls.start w.replicas.(i) ~my_value:v)

(* deliver until quiet, optionally dropping some messages *)
let drain ?(drop = fun ~from:_ ~to_:_ _ -> false) ?(dead = fun _ -> false) w =
  let budget = ref 100_000 in
  while (not (Queue.is_empty w.queue)) && !budget > 0 do
    decr budget;
    let from, to_, m = Queue.pop w.queue in
    if (not (drop ~from ~to_ m)) && not (dead to_) then
      handle w to_ (Dls.on_msg w.replicas.(to_) ~from_:from m)
  done;
  if !budget = 0 then Alcotest.fail "dispatcher did not quiesce"

let fire_timers ?(dead = fun _ -> false) w =
  let timers = w.pending_timers in
  w.pending_timers <- [];
  List.iter
    (fun (i, round) ->
      if not (dead i) then
        handle w i (Dls.on_round_timeout w.replicas.(i) round))
    timers

let agreement w =
  match w.decisions with
  | [] -> true
  | (_, first) :: rest ->
      List.for_all (fun (_, dc) -> String.equal dc.Dls.d_value first.Dls.d_value) rest

let decided_count w = List.length w.decisions

let basic_tests =
  [
    Alcotest.test_case "leader rotation" `Quick (fun () ->
        check Alcotest.int "r0" 0 (Dls.leader_of ~n:4 0);
        check Alcotest.int "r1" 1 (Dls.leader_of ~n:4 1);
        check Alcotest.int "r5" 1 (Dls.leader_of ~n:4 5));
    Alcotest.test_case "create rejects an unavailable quorum system" `Quick
      (fun () ->
        (* majority with n = 3, f = 1 keeps intersection (2q-n = 3 >= f+1)
           but loses availability (n-f = 2 < q = 3) — the old n >= 3f+1
           rejection, now spoken in quorum-law terms *)
        let w = make_world () in
        match
          Dls.create
            { (w.cfgs.(0)) with Dls.qs = Quorum_system.majority ~n:3 ~f:1 () }
        with
        | exception Invalid_argument msg ->
            check Alcotest.bool "mentions Dls.create" true
              (String.length msg >= 11 && String.sub msg 0 11 = "Dls.create:")
        | _ -> Alcotest.fail "accepted majority(n=3,f=1)");
    Alcotest.test_case "create rejects signer mismatch" `Quick (fun () ->
        let w = make_world () in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Dls.create: signer does not match self") (fun () ->
            ignore (Dls.create { (w.cfgs.(0)) with Dls.self = 1 })));
    Alcotest.test_case "unanimous start decides in round 0" `Quick (fun () ->
        let w = make_world () in
        for i = 0 to 3 do
          start w i "commit"
        done;
        drain w;
        check Alcotest.int "all decided" 4 (decided_count w);
        check Alcotest.bool "agreement" true (agreement w);
        List.iter
          (fun (_, dc) -> check Alcotest.string "value" "commit" dc.Dls.d_value)
          w.decisions);
    Alcotest.test_case "divergent preferences still agree" `Quick (fun () ->
        let w = make_world () in
        start w 0 "commit";
        start w 1 "abort";
        start w 2 "abort";
        start w 3 "commit";
        drain w;
        (* leader 0 proposes commit; everyone echoes *)
        check Alcotest.bool "agreement" true (agreement w);
        check Alcotest.int "all" 4 (decided_count w));
    Alcotest.test_case "decision certificates verify for outsiders" `Quick
      (fun () ->
        let w = make_world () in
        for i = 0 to 3 do
          start w i "v"
        done;
        drain w;
        List.iter
          (fun (_, dc) ->
            check Alcotest.bool "verify" true (Dls.verify_decision w.cfgs.(0) dc))
          w.decisions);
    Alcotest.test_case "tampered decision certificate fails" `Quick (fun () ->
        let w = make_world () in
        for i = 0 to 3 do
          start w i "v"
        done;
        drain w;
        let _, dc = List.hd w.decisions in
        let tampered = { dc with Dls.d_value = "other" } in
        check Alcotest.bool "reject" false
          (Dls.verify_decision w.cfgs.(0) tampered));
    Alcotest.test_case "too few signatures fail verification" `Quick (fun () ->
        let w = make_world () in
        for i = 0 to 3 do
          start w i "v"
        done;
        drain w;
        let _, dc = List.hd w.decisions in
        let thin =
          { dc with Dls.d_sigs = [ List.hd dc.Dls.d_sigs ] }
        in
        check Alcotest.bool "reject" false (Dls.verify_decision w.cfgs.(0) thin));
    Alcotest.test_case "duplicate signatures do not inflate a quorum" `Quick
      (fun () ->
        let w = make_world () in
        for i = 0 to 3 do
          start w i "v"
        done;
        drain w;
        let _, dc = List.hd w.decisions in
        let one = List.hd dc.Dls.d_sigs in
        let padded = { dc with Dls.d_sigs = [ one; one; one; one; one ] } in
        check Alcotest.bool "reject" false
          (Dls.verify_decision w.cfgs.(0) padded));
  ]

let fault_tests =
  [
    Alcotest.test_case "crashed follower does not block a decision" `Quick
      (fun () ->
        let w = make_world () in
        let dead i = i = 3 in
        for i = 0 to 2 do
          start w i "v"
        done;
        drain ~dead w;
        check Alcotest.bool "agreement" true (agreement w);
        check Alcotest.bool "some decided" true (decided_count w >= 3));
    Alcotest.test_case "crashed round-0 leader: round change decides" `Quick
      (fun () ->
        let w = make_world () in
        let dead i = i = 0 in
        for i = 1 to 3 do
          start w i "v"
        done;
        drain ~dead w;
        check Alcotest.int "nothing yet" 0 (decided_count w);
        (* round 0 times out; round 1's leader (replica 1) proposes *)
        fire_timers ~dead w;
        drain ~dead w;
        check Alcotest.bool "agreement" true (agreement w);
        check Alcotest.bool "decided" true (decided_count w >= 3));
    Alcotest.test_case "equivocating leader cannot split the committee" `Quick
      (fun () ->
        (* replica 0 is Byzantine: it sends Propose("commit") to 1 and
           Propose("abort") to 2 and 3 in round 0. Echo quorums cannot form
           for both; after the round change an honest leader decides. *)
        let w = make_world () in
        for i = 1 to 3 do
          start w i "fallback"
        done;
        Queue.add (0, 1, Dls.Propose { round = 0; value = "commit"; justif = None }) w.queue;
        Queue.add (0, 2, Dls.Propose { round = 0; value = "abort"; justif = None }) w.queue;
        Queue.add (0, 3, Dls.Propose { round = 0; value = "abort"; justif = None }) w.queue;
        let dead i = i = 0 in
        drain ~dead w;
        fire_timers ~dead w;
        drain ~dead w;
        fire_timers ~dead w;
        drain ~dead w;
        check Alcotest.bool "agreement" true (agreement w);
        check Alcotest.bool "honest decided" true (decided_count w >= 3));
    Alcotest.test_case "forged echoes are ignored" `Quick (fun () ->
        let w = make_world () in
        start w 1 "v";
        (* an attacker fabricates echoes claiming to be replicas 0,2,3 *)
        List.iter
          (fun author ->
            let body = { Dls.e_round = 0; e_value = "evil" } in
            let sv = Auth.forge_value ~author body in
            Queue.add (author, 1, Dls.Echo sv) w.queue)
          [ 0; 2; 3 ];
        drain ~dead:(fun i -> i <> 1) w;
        check Alcotest.int "no decision from forgeries" 0 (decided_count w);
        check Alcotest.bool "no lock" true (Dls.locked w.replicas.(1) = None));
    Alcotest.test_case "external validity blocks invalid proposals" `Quick
      (fun () ->
        let w = make_world ~validate:(fun v -> v <> "invalid") () in
        for i = 0 to 3 do
          start w i "invalid"
        done;
        drain w;
        check Alcotest.int "no decision" 0 (decided_count w));
    Alcotest.test_case "join participates without proposing" `Quick (fun () ->
        let w = make_world () in
        (* replicas 1..3 join with no preference; 0 starts with a value *)
        for i = 1 to 3 do
          handle w i (Dls.join w.replicas.(i))
        done;
        start w 0 "v";
        drain w;
        check Alcotest.bool "decided" true (decided_count w >= 4);
        check Alcotest.bool "agreement" true (agreement w));
    Alcotest.test_case "update_preference lets a late leader propose" `Quick
      (fun () ->
        let w = make_world () in
        (* everyone joins silently; then replica 0 (round-0 leader) gets a
           preference and proposes *)
        for i = 0 to 3 do
          handle w i (Dls.join w.replicas.(i))
        done;
        drain w;
        check Alcotest.int "nothing" 0 (decided_count w);
        handle w 0 (Dls.update_preference w.replicas.(0) "late");
        drain w;
        check Alcotest.bool "decided" true (decided_count w >= 4));
    Alcotest.test_case "stale round timer is a no-op" `Quick (fun () ->
        let w = make_world () in
        for i = 0 to 3 do
          start w i "v"
        done;
        drain w;
        let r = decided_count w in
        (* fire leftover round-0 timers after the decision *)
        fire_timers w;
        drain w;
        check Alcotest.int "unchanged" r (decided_count w));
  ]

let random_schedule_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"agreement under random drops and timers"
         ~count:60
         QCheck.(pair small_int (list (int_bound 20)))
         (fun (seed, _) ->
           let rng = Sim.Rng.create ~seed in
           let w = make_world () in
           for i = 0 to 3 do
             start w i (if Sim.Rng.bool rng then "commit" else "abort")
           done;
           (* phase 1: drop ~30% of messages, then fire timers, then let
              everything through — models a pre-GST mess followed by
              stabilization *)
           let drop ~from:_ ~to_:_ _ = Sim.Rng.int rng 10 < 3 in
           drain ~drop w;
           fire_timers w;
           drain ~drop w;
           fire_timers w;
           drain w;
           fire_timers w;
           drain w;
           agreement w));
    qcheck
      (QCheck.Test.make ~name:"decisions always carry verifiable certificates"
         ~count:30
         QCheck.small_int
         (fun seed ->
           let rng = Sim.Rng.create ~seed in
           let w = make_world () in
           for i = 0 to 3 do
             start w i (if Sim.Rng.bool rng then "x" else "y")
           done;
           drain w;
           List.for_all
             (fun (_, dc) -> Dls.verify_decision w.cfgs.(0) dc)
             w.decisions));
  ]

(* ---------------- bounded-exhaustive schedule exploration -------------- *)

(* Systematic concurrency testing: explore EVERY delivery order of the
   first [k] messages (the scheduler branches on which pending message to
   deliver next), then drain deterministically, fire round timers, and
   drain again. Agreement must hold at every leaf. This covers the
   schedule prefixes where quorum races actually happen — a bounded
   version of the quantification in the DLS safety proof. *)

let explore_agreement ~k ~prefs =
  let leaves = ref 0 in
  let run_path path =
    (* re-execute the whole world following [path]; return `Choice n if the
       path ran out with n pending messages and budget left, else check the
       leaf *)
    let w = make_world () in
    Array.iteri (fun i v -> start w i v) prefs;
    let depth = ref 0 in
    let rec step remaining_path =
      if Queue.is_empty w.queue then `Leaf
      else if !depth >= k then begin
        (* deterministic tail: FIFO *)
        let from, to_, m = Queue.pop w.queue in
        handle w to_ (Dls.on_msg w.replicas.(to_) ~from_:from m);
        step remaining_path
      end
      else
        match remaining_path with
        | [] -> `Choice (Queue.length w.queue)
        | choice :: rest ->
            (* deliver the [choice]-th pending message *)
            let items = Queue.to_seq w.queue |> List.of_seq in
            let n = List.length items in
            let idx = choice mod n in
            Queue.clear w.queue;
            List.iteri (fun i it -> if i <> idx then Queue.add it w.queue) items;
            let from, to_, m = List.nth items idx in
            incr depth;
            handle w to_ (Dls.on_msg w.replicas.(to_) ~from_:from m);
            step rest
    in
    match step path with
    | `Choice n -> `Choice n
    | `Leaf ->
        (* stabilise: timers + full drains until quiet *)
        for _ = 1 to 3 do
          fire_timers w;
          drain w
        done;
        if not (agreement w) then
          Alcotest.failf "disagreement on path [%s]"
            (String.concat ";" (List.map string_of_int path));
        incr leaves;
        `Leaf
  in
  let rec dfs path =
    match run_path path with
    | `Leaf -> ()
    | `Choice n ->
        for i = 0 to n - 1 do
          dfs (path @ [ i ])
        done
  in
  dfs [];
  !leaves

let exploration_tests =
  [
    Alcotest.test_case "agreement over all orderings (unanimous, k=4)" `Slow
      (fun () ->
        let leaves =
          explore_agreement ~k:4 ~prefs:[| "c"; "c"; "c"; "c" |]
        in
        check Alcotest.bool "explored some schedules" true (leaves > 10));
    Alcotest.test_case "agreement over all orderings (split, k=4)" `Slow
      (fun () ->
        let leaves =
          explore_agreement ~k:4 ~prefs:[| "c"; "a"; "a"; "c" |]
        in
        check Alcotest.bool "explored some schedules" true (leaves > 10));
    Alcotest.test_case "agreement over all orderings (split, k=5)" `Slow
      (fun () ->
        let leaves =
          explore_agreement ~k:5 ~prefs:[| "a"; "c"; "a"; "c" |]
        in
        check Alcotest.bool "explored some schedules" true (leaves > 50));
  ]

(* ------------------------ authority chain ------------------------------ *)

module Chain = Consensus.Chain

(* simpler driver: explicit broadcast fan-out *)
let run_chain ?(n = 3) ~txs ~rounds () =
  let cfgs =
    Array.init n (fun i ->
        {
          Chain.n;
          self = i;
          block_interval = 100;
          initial_state = [];
          apply = (fun st tx -> (tx :: st, [ tx ]));
          tx_key = Fun.id;
        })
  in
  let validators = Array.map Chain.create cfgs in
  let pending : (int * int option * string Chain.msg) Queue.t = Queue.create () in
  let emitted = Array.make n [] in
  let announced = Array.make n [] in
  let timers = ref [] in
  let rec handle i effs =
    List.iter
      (fun eff ->
        match eff with
        | Chain.Broadcast m ->
            (match m with
            | Chain.Announce b -> announced.(i) <- b :: announced.(i)
            | Chain.Submit _ -> ());
            for j = 0 to n - 1 do
              Queue.add (j, Some i, m) pending
            done
        | Chain.Set_round_timer { round; _ } -> timers := (i, round) :: !timers
        | Chain.Emit evs -> emitted.(i) <- emitted.(i) @ evs)
      effs;
    ignore handle
  in
  Array.iteri (fun i v -> handle i (Chain.start v)) validators;
  (* submit txs to every validator *)
  List.iter
    (fun tx ->
      for j = 0 to n - 1 do
        Queue.add (j, None, Chain.Submit tx) pending
      done)
    txs;
  for _ = 1 to rounds do
    (* drain messages *)
    while not (Queue.is_empty pending) do
      let to_, from_, m = Queue.pop pending in
      handle to_ (Chain.on_msg validators.(to_) ~from_ m)
    done;
    (* fire pending round timers *)
    let ts = !timers in
    timers := [];
    List.iter
      (fun (i, round) -> handle i (Chain.on_round_timeout validators.(i) round))
      ts
  done;
  (* the blocks each validator proposed, oldest first *)
  (Array.map List.rev announced, emitted)

let chain_tests =
  [
    Alcotest.test_case "submitted transactions reach every replica in the \
                        same order" `Quick (fun () ->
        let announced, emitted = run_chain ~txs:[ "a"; "b"; "c" ] ~rounds:8 () in
        check Alcotest.bool "chain grew" true
          (Array.exists (fun bs -> bs <> []) announced);
        (* [apply] emits each transaction as it is applied *)
        let s0 = emitted.(0) in
        Array.iter
          (fun evs -> check Alcotest.(list string) "same order" s0 evs)
          emitted;
        check Alcotest.int "all applied" 3 (List.length s0));
    Alcotest.test_case "every replica emits each event exactly once" `Quick
      (fun () ->
        let _, emitted = run_chain ~txs:[ "x"; "y" ] ~rounds:8 () in
        Array.iter
          (fun evs ->
            check Alcotest.int "two events" 2 (List.length evs);
            check Alcotest.bool "x once" true
              (List.length (List.filter (String.equal "x") evs) = 1))
          emitted);
    Alcotest.test_case "duplicate submissions are deduplicated" `Quick
      (fun () ->
        let _, emitted = run_chain ~txs:[ "a"; "a"; "a" ] ~rounds:8 () in
        Array.iter
          (fun evs -> check Alcotest.int "one event" 1 (List.length evs))
          emitted);
    Alcotest.test_case "a transaction already in the chain is ignored" `Quick
      (fun () ->
        let v =
          Chain.create
            {
              Chain.n = 1;
              self = 0;
              block_interval = 50;
              initial_state = [];
              apply = (fun st tx -> (tx :: st, [ tx ]));
              tx_key = Fun.id;
            }
        in
        ignore (Chain.start v);
        let emitted =
          List.concat_map (function Chain.Emit evs -> evs | _ -> [])
        in
        (* the lone validator proposes "a"; its announcement applies it *)
        let announce =
          List.concat_map (function
            | Chain.Broadcast m -> Chain.on_msg v ~from_:(Some 0) m
            | _ -> [])
        in
        check
          Alcotest.(list string)
          "applied" [ "a" ]
          (emitted (announce (Chain.on_msg v ~from_:None (Chain.Submit "a"))));
        check Alcotest.int "resubmission ignored" 0
          (List.length (Chain.on_msg v ~from_:None (Chain.Submit "a")));
        let block =
          { Chain.height = 1; round = 1; proposer = 0; txs = [ "a"; "b" ] }
        in
        check
          Alcotest.(list string)
          "a later block applies only the fresh one" [ "b" ]
          (emitted (Chain.on_msg v ~from_:(Some 0) (Chain.Announce block))));
    Alcotest.test_case "height rotates the proposer" `Quick (fun () ->
        let announced, _ = run_chain ~n:3 ~txs:[ "t1" ] ~rounds:4 () in
        check Alcotest.bool "a block was proposed" true
          (Array.exists (fun bs -> bs <> []) announced);
        Array.iteri
          (fun i blocks ->
            List.iter
              (fun (b : string Chain.block) ->
                check Alcotest.int "proposer = height mod n" (b.Chain.height mod 3)
                  b.Chain.proposer;
                check Alcotest.int "announced by its proposer" i b.Chain.proposer)
              blocks)
          announced);
    Alcotest.test_case "announcements from non-validators are ignored" `Quick
      (fun () ->
        let cfg =
          {
            Chain.n = 2;
            self = 0;
            block_interval = 50;
            initial_state = [];
            apply = (fun st tx -> (tx :: st, [ tx ]));
            tx_key = Fun.id;
          }
        in
        let v = Chain.create cfg in
        ignore (Chain.start v);
        let block txs = { Chain.height = 0; round = 0; proposer = 0; txs } in
        let effs = Chain.on_msg v ~from_:None (Chain.Announce (block [ "evil" ])) in
        check Alcotest.int "no effects" 0 (List.length effs);
        (* height 0 is still open: validator 0's own block for it applies *)
        let effs = Chain.on_msg v ~from_:(Some 0) (Chain.Announce (block [ "ok" ])) in
        check Alcotest.bool "height unchanged" true
          (List.exists (function Chain.Emit [ "ok" ] -> true | _ -> false) effs));
    Alcotest.test_case "create validates its config" `Quick (fun () ->
        Alcotest.check_raises "bad self"
          (Invalid_argument "Chain.create: bad self") (fun () ->
            ignore
              (Chain.create
                 {
                   Chain.n = 2;
                   self = 5;
                   block_interval = 10;
                   initial_state = ();
                   apply = (fun () _ -> ((), []));
                   tx_key = (fun (_ : int) -> "");
                 })));
  ]

(* ------------------------------------------------ ser/equal soundness *)

(* Dls counts the votes for equal values together, each checked against
   its own statement, so each [ser]/[equal] pair handed to a [Dls.config]
   must satisfy [equal a b <=> ser a = ser b]. *)
module Committee = Quorum.Committee

let law ~ser ~equal (a, b) =
  Bool.equal (equal a b) (String.equal (ser a) (ser b))

(* An item with one decimal digit changed (never to a leading zero). *)
let gen_digit_change item =
  let open QCheck.Gen in
  let s = string_of_int item in
  let lo = if item < 0 then 1 else 0 in
  let* k = int_range lo (String.length s - 1) in
  let leading = k = lo && String.length s - lo > 1 in
  let* c =
    oneofl
      (List.filter
         (fun c -> c <> s.[k] && not (leading && c = '0'))
         (List.init 10 (fun d -> Char.chr (Char.code '0' + d))))
  in
  return (int_of_string (String.mapi (fun i x -> if i = k then c else x) s))

let gen_verdict =
  QCheck.Gen.(
    map2
      (fun item commit -> { Committee.item; commit })
      (oneof [ int_bound 20; int_range (-1_000) 100_000 ])
      bool)

let gen_batch = QCheck.Gen.(list_size (int_bound 32) gen_verdict)

(* A second batch close to the first: the same batch rebuilt, one item
   with a digit or its sign changed, one flag flipped, one verdict dropped
   or added, two verdicts swapped, or an unrelated batch. *)
let gen_batch_pair =
  let open QCheck.Gen in
  let* a = gen_batch in
  let n = List.length a in
  let at k (f : Committee.verdict -> Committee.verdict) =
    List.mapi (fun i v -> if i = k then f v else v) a
  in
  let* b =
    if n = 0 then oneof [ return []; gen_batch ]
    else
      let* k = int_bound (n - 1) in
      let v = List.nth a k in
      let* item' = gen_digit_change v.Committee.item in
      let* extra = gen_verdict in
      let* j = int_bound (n - 1) in
      oneof
        [
          return (at k (fun v -> { v with item = v.item }));
          return (at k (fun v -> { v with item = item' }));
          return (at k (fun v -> { v with item = -v.item }));
          return (at k (fun v -> { v with commit = not v.commit }));
          return (List.filteri (fun i _ -> i <> k) a);
          return (a @ [ extra ]);
          return
            (List.mapi
               (fun i x ->
                 if i = k then List.nth a j else if i = j then v else x)
               a);
          gen_batch;
        ]
  in
  return (a, b)

let print_batch = Committee.ser_batch
let arb_batch_pair =
  QCheck.make ~print:QCheck.Print.(pair print_batch print_batch) gen_batch_pair

let gen_bool_pair = QCheck.Gen.(pair bool bool)

(* Two votes: a pair of values from [gen], under equal or nearby rounds. *)
let arb_votes gen print =
  let open QCheck.Gen in
  QCheck.make
    ~print:QCheck.Print.(pair (pair int print) (pair int print))
    (let* a, b = gen in
     let* r = int_range (-2) 40 in
     let* r' = oneof [ return r; int_range (-2) 40 ] in
     return ((r, a), (r', b)))

let soundness_tests =
  let prop name arb f = qcheck (QCheck.Test.make ~count:500 ~name arb f) in
  (* the law for a value pair, lifted to the signed (round, value) vote *)
  let lifted ~ser ~equal ser_body mk =
    law
      ~ser:(fun (r, v) -> Auth.statement (ser_body ser) (mk r v))
      ~equal:(fun (r, a) (r', b) -> r = r' && equal a b)
  in
  let echo r v = { Dls.e_round = r; e_value = v } in
  let commit r v = { Dls.c_round = r; c_value = v } in
  let batches = arb_votes gen_batch_pair print_batch in
  let bools = arb_votes gen_bool_pair string_of_bool in
  let ser_batch = Committee.ser_batch and batch_equal = Committee.batch_equal in
  let ser_bool = Protocols.Msg.ser_bool and bool_equal = Bool.equal in
  [
    prop "batch_equal iff ser_batch equal" arb_batch_pair
      (law ~ser:ser_batch ~equal:batch_equal);
    prop "Bool.equal iff ser_bool equal"
      (QCheck.make gen_bool_pair)
      (law ~ser:ser_bool ~equal:bool_equal);
    prop "batch echoes: equal iff ser_echo equal" batches
      (lifted ~ser:ser_batch ~equal:batch_equal Dls.ser_echo echo);
    prop "batch commits: equal iff ser_commit equal" batches
      (lifted ~ser:ser_batch ~equal:batch_equal Dls.ser_commit commit);
    prop "bool echoes: equal iff ser_echo equal" bools
      (lifted ~ser:ser_bool ~equal:bool_equal Dls.ser_echo echo);
    prop "bool commits: equal iff ser_commit equal" bools
      (lifted ~ser:ser_bool ~equal:bool_equal Dls.ser_commit commit);
  ]

(* ------------------------------------------- running-tally oracle *)

(* One replica fed a random stream of echo and commit votes — duplicate
   authors, a registered non-replica, forged signatures, two values a
   round, rounds other than the current one, round timeouts in between.
   After every step its tally must equal a quorum test over the
   distinct replicas whose votes verify, and every QC it locked and every
   certificate it decided must pass the full re-check that the running
   tally lets the replica skip. *)

type sig_kind = Honest | Forged | Outsider

type step =
  | Vote of { commit : bool; author : int; round : int; value : string;
              how : sig_kind }
  | Timeout of int

let oracle_systems =
  [|
    Quorum_system.majority ~n:4 ~f:1 ();
    Quorum_system.majority ~n:7 ~f:2 ();
    Quorum_system.weighted ~weights:[| 2; 2; 1; 1; 1 |] ~f:1 ();
    Quorum_system.grid ~rows:3 ~cols:3 ~f:1 ();
  |]

let print_step = function
  | Vote { commit; author; round; value; how } ->
      Printf.sprintf "%s(a%d,r%d,%s%s)"
        (if commit then "commit" else "echo")
        author round value
        (match how with
        | Honest -> ""
        | Forged -> ",forged"
        | Outsider -> ",outsider")
  | Timeout r -> Printf.sprintf "timeout(r%d)" r

let arb_vote_stream =
  let open QCheck.Gen in
  let step =
    frequency
      [
        ( 12,
          let* commit = frequency [ (3, return false); (2, return true) ] in
          let* author = int_range 0 8 in
          let* round = frequency [ (4, return 0); (1, int_range 1 2) ] in
          let* value = oneofl [ "a"; "a"; "b" ] in
          let* how =
            frequency
              [ (8, return Honest); (1, return Forged); (1, return Outsider) ]
          in
          return (Vote { commit; author; round; value; how }) );
        (1, map (fun r -> Timeout r) (int_range 0 2));
      ]
  in
  QCheck.make
    ~print:(fun (k, steps) ->
      Printf.sprintf "%s: %s"
        (let qs = oracle_systems.(k) in
         Printf.sprintf "%s(n=%d,f=%d)" (Quorum_system.family_name qs)
           (Quorum_system.size qs) (Quorum_system.fault_bound qs))
        (String.concat " " (List.map print_step steps)))
    (pair (int_bound (Array.length oracle_systems - 1)) (list_size (int_range 0 80) step))

(* the full check a replica skips for its own buckets *)
let vote_set_ok cfg ~ser_vote ~round_of ~value_of ~round ~value sigs =
  let n = Quorum_system.size cfg.Dls.qs in
  let present = Array.make n false in
  List.for_all
    (fun (sv : _ Auth.signed) ->
      let a = sv.Auth.author in
      round_of sv.Auth.payload = round
      && String.equal (value_of sv.Auth.payload) value
      && a >= 0 && a < n && (not present.(a))
      && Auth.verify cfg.Dls.registry a
           (Auth.statement ser_vote sv.Auth.payload)
           sv.Auth.signature
      && (present.(a) <- true; true))
    sigs
  && Quorum_system.is_quorum cfg.Dls.qs ~present

let tally_oracle (k, steps) =
  let qs = oracle_systems.(k) in
  let n = Quorum_system.size qs in
  let w = make_world ~n ~qs () in
  let cfg = w.cfgs.(0) in
  let t = w.replicas.(0) in
  ignore (Dls.join t);
  let outsider = Auth.register cfg.Dls.registry 99 in
  let signer a = Auth.signer_of cfg.Dls.registry a in
  (* (commit, round, value) -> replica indices whose vote verified *)
  let model = Hashtbl.create 16 in
  let top_echo_quorum = ref (-1) in
  let sign commit ~round ~value s =
    if commit then
      `Commit
        (Auth.sign_value s ~put:(Dls.ser_commit Fun.id)
           { Dls.c_round = round; c_value = value })
    else
      `Echo
        (Auth.sign_value s ~put:(Dls.ser_echo Fun.id)
           { Dls.e_round = round; e_value = value })
  in
  let msg_of = function
    | `Commit sv -> Dls.Commit sv
    | `Echo sv -> Dls.Echo sv
  in
  let quorum_of present = Quorum_system.is_quorum qs ~present in
  let step_ok step =
    let was_decided = Dls.decided t <> None in
    (match step with
    | Timeout r -> ignore (Dls.on_round_timeout t r)
    | Vote { commit; author; round; value; how } ->
        let author = author mod n in
        let vote =
          match how with
          | Honest -> sign commit ~round ~value (signer author)
          | Outsider -> sign commit ~round ~value outsider
          | Forged ->
              if commit then
                `Commit
                  (Auth.forge_value ~author
                     { Dls.c_round = round; c_value = value })
              else
                `Echo
                  (Auth.forge_value ~author
                     { Dls.e_round = round; e_value = value })
        in
        ignore (Dls.on_msg t ~from_:author (msg_of vote));
        if how = Honest && not was_decided then begin
          let key = (commit, round, value) in
          let present =
            match Hashtbl.find_opt model key with
            | Some p -> p
            | None ->
                let p = Array.make n false in
                Hashtbl.add model key p;
                p
          in
          present.(author) <- true;
          if (not commit) && quorum_of present then
            top_echo_quorum := max !top_echo_quorum round
        end);
    let decided = Dls.decided t <> None in
    (* the books of a decided replica are gone *)
    Hashtbl.fold
      (fun (commit, round, value) present ok ->
        let kind = if commit then `Commit else `Echo in
        ok
        && Dls.tally t kind ~round value
           = ((not decided) && quorum_of present))
      model true
    && (match Dls.locked t with
       | None -> !top_echo_quorum < 0
       | Some qc ->
           qc.Dls.q_round = !top_echo_quorum
           && vote_set_ok cfg ~ser_vote:(Dls.ser_echo Fun.id)
                ~round_of:(fun b -> b.Dls.e_round)
                ~value_of:(fun b -> b.Dls.e_value)
                ~round:qc.Dls.q_round ~value:qc.Dls.q_value qc.Dls.q_sigs)
    &&
    match Dls.decided t with
    | None -> true
    | Some dc ->
        Dls.verify_decision cfg dc
        && vote_set_ok cfg ~ser_vote:(Dls.ser_commit Fun.id)
             ~round_of:(fun b -> b.Dls.c_round)
             ~value_of:(fun b -> b.Dls.c_value)
             ~round:dc.Dls.d_round ~value:dc.Dls.d_value dc.Dls.d_sigs
  in
  List.for_all step_ok steps

(* ------------------------------------- vote book vs a naive model *)

(* One vote book fed a random vote stream, beside a naive model keyed by
   author: per (round, value), the set of authors whose vote verified.
   Replica [i] signs as Auth id [10 + i], so the book's replica index is
   not the author; author [n] is a registered outsider and [n + 1] was
   never registered. A vote's signature is honest, forged, or the right
   signer's over another (round, value) than its payload claims. *)

type book_sig = Signed | Fabricated | Other_statement

type book_vote = { b_author : int; b_round : int; b_value : int; b_sig : book_sig }

let print_book_vote v =
  Printf.sprintf "a%d:r%d:v%d%s" v.b_author v.b_round v.b_value
    (match v.b_sig with
    | Signed -> ""
    | Fabricated -> ":forged"
    | Other_statement -> ":other")

let arb_book_stream =
  let open QCheck.Gen in
  let vote =
    let* b_author = int_range 0 10 in
    let* b_round = frequency [ (4, return 0); (1, int_range 1 2) ] in
    let* b_value = frequency [ (4, return 0); (1, int_range 1 2) ] in
    let* b_sig =
      frequency
        [ (8, return Signed); (1, return Fabricated); (1, return Other_statement) ]
    in
    return { b_author; b_round; b_value; b_sig }
  in
  QCheck.make
    ~print:(fun (k, votes) ->
      Printf.sprintf "system %d: %s" k
        (String.concat " " (List.map print_book_vote votes)))
    (pair
       (int_bound (Array.length oracle_systems - 1))
       (list_size (int_range 0 80) vote))

let book_statement round value = Printf.sprintf "vote|%d|%d" round value

let book_matches_model (k, votes) =
  let qs = oracle_systems.(k) in
  let n = Quorum_system.size qs in
  let registry = Auth.create ~seed:5 in
  let auth_ids = Array.init n (fun i -> 10 + i) in
  Array.iter (fun id -> ignore (Auth.register registry id)) auth_ids;
  ignore (Auth.register registry 99);
  let book =
    Consensus.Vote_book.create ~qs ~auth_ids ~registry ~equal:Int.equal
      ~put:(fun buf (round, value) ->
        Auth.put_string buf 0 (book_statement round value))
  in
  (* (round, value) -> authors whose vote verified, and whether they
     already formed a quorum *)
  let model = Hashtbl.create 8 in
  let model_record a (round, value) sv =
    let member = Array.exists (( = ) a) auth_ids in
    if
      not
        (member
        && Auth.verify registry a (book_statement round value)
             sv.Auth.signature)
    then `Dropped
    else begin
      let authors, quorum =
        match Hashtbl.find_opt model (round, value) with
        | Some e -> e
        | None -> (Hashtbl.create 8, ref false)
      in
      Hashtbl.replace model (round, value) (authors, quorum);
      let fresh = not (Hashtbl.mem authors a) in
      Hashtbl.replace authors a ();
      if !quorum then `Past_quorum
      else if not fresh then `Counted
      else
        let present = Array.map (Hashtbl.mem authors) auth_ids in
        if Quorum_system.is_quorum qs ~present then begin
          quorum := true;
          `Reached (List.sort compare (List.of_seq (Hashtbl.to_seq_keys authors)))
        end
        else `Counted
    end
  in
  let author_id a = if a < n then 10 + a else if a = n then 99 else 98 in
  List.for_all
    (fun v ->
      let a = author_id (v.b_author mod (n + 2)) in
      let payload = (v.b_round, v.b_value) in
      let sv =
        match v.b_sig with
        | Fabricated -> Auth.forge_value ~author:a payload
        | Signed | Other_statement ->
            let round, value =
              if v.b_sig = Signed then payload
              else (v.b_round + 1, v.b_value)
            in
            let signer =
              if a = 98 then Auth.register (Auth.create ~seed:6) a
              else Auth.signer_of registry a
            in
            Auth.sign_value signer
              ~put:(fun buf _ ->
                Auth.put_string buf 0 (book_statement round value))
              payload
      in
      let got =
        match
          Consensus.Vote_book.record book ~round:v.b_round ~value:v.b_value sv
        with
        | Consensus.Vote_book.Dropped -> `Dropped
        | Counted -> `Counted
        | Past_quorum -> `Past_quorum
        | Reached sigs ->
            (* in replica order, every one for this (round, value) *)
            List.iter
              (fun (s : _ Auth.signed) ->
                if s.Auth.payload <> payload then
                  QCheck.Test.fail_report "a QC signature for another vote")
              sigs;
            `Reached (List.map (fun (s : _ Auth.signed) -> s.Auth.author) sigs)
      in
      got = model_record a payload sv
      && Consensus.Vote_book.holds book ~round:v.b_round v.b_value
         = (match Hashtbl.find_opt model payload with
           | Some (_, q) -> !q
           | None -> false))
    votes

let tally_tests =
  [
    Alcotest.test_case "an echo past the quorum commits once the round comes"
      `Quick (fun () ->
        let w = make_world () in
        let t = w.replicas.(0) in
        ignore (Dls.join t);
        let echo a =
          Dls.Echo
            (Auth.sign_value
               (Auth.signer_of w.cfgs.(0).Dls.registry a)
               ~put:(Dls.ser_echo Fun.id)
               { Dls.e_round = 1; e_value = "a" })
        in
        let commits effs =
          List.filter
            (function Dls.Broadcast (Dls.Commit _) -> true | _ -> false)
            effs
        in
        (* a quorum of round-1 echoes while still in round 0: lock, no vote *)
        for a = 0 to 2 do
          check Alcotest.int "no commit yet" 0
            (List.length (commits (Dls.on_msg t ~from_:a (echo a))))
        done;
        check Alcotest.bool "tally" true (Dls.tally t `Echo ~round:1 "a");
        ignore (Dls.on_round_timeout t 0);
        (* the next echo of the bucket finds the replica in round 1 *)
        check Alcotest.int "commit vote" 1
          (List.length (commits (Dls.on_msg t ~from_:3 (echo 3)))));
    qcheck
      (QCheck.Test.make ~name:"the running tally matches a quorum oracle"
         ~count:400 arb_vote_stream tally_oracle);
    qcheck
      (QCheck.Test.make
         ~name:"a vote book tallies as a naive author-keyed model"
         ~count:400 arb_book_stream book_matches_model);
  ]

let () =
  Alcotest.run "consensus"
    [
      ("basic", basic_tests);
      ("faults", fault_tests);
      ("random", random_schedule_tests);
      ("exploration", exploration_tests);
      ("chain", chain_tests);
      ("soundness", soundness_tests);
      ("tally", tally_tests);
    ]

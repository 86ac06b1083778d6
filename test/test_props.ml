(* Tests for the property monitors: the verdict algebra, the per-property
   checkers on real runs (positive and negative), and the CC /
   certificate checks on synthesised traces. *)

open Protocols
module PP = Props.Payment_props
module PF = Props.Payment_fold
module V = Props.Verdict

let check = Alcotest.check

(* the verdict on [property] in a report *)
let find r property = List.find_opt (fun v -> v.V.property = property) r

let verdict_tests =
  [
    Alcotest.test_case "all_hold ignores vacuous entries" `Quick (fun () ->
        let r = [ V.ok "A" ""; V.vacuous "B" "n/a" ] in
        check Alcotest.bool "holds" true (V.all_hold r));
    Alcotest.test_case "violations are reported" `Quick (fun () ->
        let r = [ V.ok "A" ""; V.violated "B" "boom" ] in
        check Alcotest.bool "fails" false (V.all_hold r);
        check Alcotest.int "one failure" 1 (List.length (V.failures r)));
    Alcotest.test_case "find and holds" `Quick (fun () ->
        let r = [ V.ok "A" ""; V.violated "B" ""; V.vacuous "C" "" ] in
        check Alcotest.bool "A" true (V.holds r "A");
        check Alcotest.bool "B" false (V.holds r "B");
        check Alcotest.bool "C vacuous counts as holding" true (V.holds r "C");
        check Alcotest.bool "missing" false (V.holds r "Z"));
  ]

let run_sync ?(hops = 3) ?(seed = 1) ?(faults = []) ?adversary ?network () =
  let cfg =
    {
      (Runner.default_config ~hops ~seed) with
      faults;
      adversary;
      network = Option.value ~default:Runner.Sync network;
    }
  in
  Runner.run cfg Runner.Sync_timebound

let positive_tests =
  [
    Alcotest.test_case "happy run satisfies all of Def.1" `Quick (fun () ->
        let v = PP.view (run_sync ()) in
        let r = PP.check_def1 ~time_bounded:true v in
        List.iter
          (fun (verdict : V.t) ->
            check Alcotest.bool verdict.V.property true
              ((not verdict.V.applicable) || verdict.V.holds))
          r;
        check Alcotest.int "seven properties" 7 (List.length r));
    Alcotest.test_case "net positions on the happy path" `Quick (fun () ->
        let o = run_sync () in
        let v = PP.view o in
        let topo = o.Runner.env.Env.topo in
        check Alcotest.int "alice" (-1020) (v.PP.net (Topology.alice topo));
        check Alcotest.int "chloe1 commission" 10 (v.PP.net 1);
        check Alcotest.int "bob" 1000 (v.PP.net (Topology.bob topo)));
    Alcotest.test_case "lock_time is positive and bounded by run length"
      `Quick (fun () ->
        let o = run_sync () in
        let v = PP.view o in
        let lt = PP.lock_time v in
        check Alcotest.bool "positive" true (lt > 0);
        check Alcotest.bool "bounded" true (lt <= 3 * o.Runner.end_time));
    Alcotest.test_case "money is conserved" `Quick (fun () ->
        check Alcotest.bool "conserved" true
          (PP.money_conserved (PP.view (run_sync ()))));
    Alcotest.test_case "bob_paid and alice_has_chi on success" `Quick (fun () ->
        let v = PP.view (run_sync ()) in
        check Alcotest.bool "paid" true (PP.bob_paid v);
        check Alcotest.bool "chi" true
          (List.exists
             (function
               | _, _, Obs.Cert_received { pid = 0; kind = Obs.Chi; valid = true }
                 ->
                   true
               | _ -> false)
             (Sim.Trace.observations v.PP.outcome.Runner.trace)));
  ]

let chi_stall : Sim.Network.adversary =
 fun ~send_time:_ ~src:_ ~dst:_ ~tag ~bounds ->
  if String.equal tag "chi" then Some bounds.Sim.Network.hi
  else Some bounds.Sim.Network.lo

let negative_tests =
  [
    Alcotest.test_case "stalled chi under partial synchrony violates T and L"
      `Quick (fun () ->
        let o =
          run_sync ~network:(Runner.Psync { gst = 200_000 })
            ~adversary:chi_stall ()
        in
        let v = PP.view o in
        let r = PP.check_def1 ~time_bounded:false v in
        check Alcotest.bool "T" false (V.holds r "T");
        check Alcotest.bool "L" false (V.holds r "L");
        (* but never safety: ES and the CS clauses survive *)
        check Alcotest.bool "ES" true (V.holds r "ES");
        check Alcotest.bool "CS1" true (V.holds r "CS1");
        check Alcotest.bool "CS3" true (V.holds r "CS3"));
    Alcotest.test_case "guarantees go vacuous when the hypothesis fails" `Quick
      (fun () ->
        let topo = Topology.create ~hops:3 in
        let o =
          run_sync ~faults:[ (Topology.escrow topo 0, Byzantine.Thief_escrow) ] ()
        in
        let v = PP.view o in
        let r = PP.check_def1 ~time_bounded:false v in
        (match find r "CS1" with
        | Some verdict -> check Alcotest.bool "CS1 vacuous" false verdict.V.applicable
        | None -> Alcotest.fail "CS1 missing");
        match find r "L" with
        | Some verdict -> check Alcotest.bool "L vacuous" false verdict.V.applicable
        | None -> Alcotest.fail "L missing");
    Alcotest.test_case "naive protocol under heavy drift fails T" `Quick
      (fun () ->
        (* hunt a violating seed; the drift race is probabilistic per seed *)
        let max_delay : Sim.Network.adversary =
         fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds -> Some bounds.Sim.Network.hi
        in
        let violated = ref false in
        let seed = ref 1 in
        while (not !violated) && !seed <= 60 do
          let cfg =
            {
              (Runner.default_config ~hops:5 ~seed:!seed) with
              drift_ppm = 80_000;
              delta = 200;
              margin = 1;
              adversary = Some max_delay;
            }
          in
          let o = Runner.run cfg Runner.Naive_universal in
          let v = PP.view o in
          if not (V.all_hold (PP.check_def1 ~time_bounded:false v)) then
            violated := true;
          incr seed
        done;
        check Alcotest.bool "found a drift violation" true !violated);
  ]

(* --------------- synthesised outcomes for the CC monitors -------------- *)

(* Build a Runner.outcome by hand around a fabricated trace: the monitors
   are pure functions of the record, so this is legitimate and lets us test
   violation branches that no honest component can produce. *)
let synthetic_outcome ~entries =
  let cfg = Runner.default_config ~hops:2 ~seed:1 in
  let topo = Topology.create ~hops:2 in
  let params = Params.derive (Params.default_input ~hops:2) in
  let env = Env.make ~topo ~params () in
  let trace = Sim.Trace.create () in
  List.iter (Sim.Trace.record trace) entries;
  let engine =
    Sim.Engine.create ~tag_of:Protocols.Msg.tag
      ~network:
        (Sim.Network.create (Sim.Network.Synchronous { delta = 100 })
           (Sim.Rng.create ~seed:1))
      ~seed:1 ()
  in
  {
    Runner.config = cfg;
    protocol = Runner.Weak Weak_protocol.default_config;
    env;
    params;
    engine;
    status = Sim.Engine.Quiescent;
    trace;
    end_time = 1_000;
    message_count = 0;
    events = 0;
    fault_names = [];
    tm_pids = [| Topology.aux_base topo |];
    clocks = Array.init (Topology.payment_count topo + 1) (fun _ -> Sim.Clock.perfect);
    paid_node = -1;
    settled_node = -1;
    injector = None;
    conformance = (fun _ -> None);
  }

let obs t pid o = Sim.Trace.Observed { t; pid; obs = o }

let cc_tests =
  [
    Alcotest.test_case "conflicting decisions violate CC" `Quick (fun () ->
        let o =
          synthetic_outcome
            ~entries:
              [
                obs 10 5 (Obs.Decision_made { by = 5; commit = true });
                obs 20 5 (Obs.Decision_made { by = 5; commit = false });
              ]
        in
        let v = PP.view o in
        check Alcotest.bool "CC violated" false
          ((PF.check_cc v.PP.judge).V.holds));
    Alcotest.test_case "a customer holding both certificates violates CC"
      `Quick (fun () ->
        let o =
          synthetic_outcome
            ~entries:
              [
                obs 10 0
                  (Obs.Cert_received { pid = 0; kind = Obs.Chi_commit; valid = true });
                obs 20 0
                  (Obs.Cert_received { pid = 0; kind = Obs.Chi_abort; valid = true });
              ]
        in
        let v = PP.view o in
        check Alcotest.bool "CC violated" false (PF.check_cc v.PP.judge).V.holds);
    Alcotest.test_case "a single decision kind satisfies CC" `Quick (fun () ->
        let o =
          synthetic_outcome
            ~entries:
              [
                obs 10 5 (Obs.Decision_made { by = 5; commit = true });
                obs 11 5 (Obs.Decision_made { by = 5; commit = true });
              ]
        in
        let v = PP.view o in
        check Alcotest.bool "CC ok" true (PF.check_cc v.PP.judge).V.holds);
    Alcotest.test_case "lock_time from a synthesised ledger history" `Quick
      (fun () ->
        let o =
          synthetic_outcome
            ~entries:
              [
                obs 100 3
                  (Obs.Deposited { escrow = 3; depositor = 0; amount = 5; deposit = 0 });
                obs 400 3
                  (Obs.Released { escrow = 3; deposit = 0; to_ = 1; amount = 5 });
                obs 200 4
                  (Obs.Deposited { escrow = 4; depositor = 1; amount = 5; deposit = 0 });
                (* never resolved: counts until end_time (1000) *)
              ]
        in
        let v = PP.view o in
        check Alcotest.int "300 + 800" 1100 (PP.lock_time v));
    Alcotest.test_case "unterminated customers leave weak-T violated" `Quick
      (fun () ->
        let o = synthetic_outcome ~entries:[] in
        let v = PP.view o in
        check Alcotest.bool "T" false
          (V.holds (PP.check_def2 ~patience_sufficient:false v) "T"));
  ]

let promise_tests =
  [
    Alcotest.test_case "honest runs have no promise breaches" `Quick (fun () ->
        for seed = 1 to 10 do
          let v = PP.view (run_sync ~seed ()) in
          check Alcotest.int "clean" 0
            (List.length (Props.Promises.breaches v));
        done);
    Alcotest.test_case "premature refund breaches P" `Quick (fun () ->
        let topo = Topology.create ~hops:3 in
        let e1 = Topology.escrow topo 1 in
        let o =
          run_sync ~faults:[ (e1, Byzantine.Premature_refund_escrow) ] ()
        in
        let v = PP.view o in
        let bs = Props.Promises.breaches v in
        check Alcotest.bool "found" true
          (List.exists
             (fun (b : Props.Promises.breach) ->
               b.Props.Promises.escrow = e1 && b.Props.Promises.promise = "P")
             bs);
        (* and every breach is the Byzantine escrow's *)
        check Alcotest.bool "only e1" true
          (List.for_all (fun (b : Props.Promises.breach) -> b.Props.Promises.escrow = e1) bs));
    Alcotest.test_case "no-resolve escrow breaches G" `Quick (fun () ->
        let topo = Topology.create ~hops:3 in
        let e1 = Topology.escrow topo 1 in
        let o = run_sync ~faults:[ (e1, Byzantine.No_resolve_escrow) ] () in
        let v = PP.view o in
        check Alcotest.bool "found" true
          (List.exists
             (fun (b : Props.Promises.breach) ->
               b.Props.Promises.escrow = e1 && b.Props.Promises.promise = "G")
             (Props.Promises.breaches v)));
    Alcotest.test_case
      "naive drift failures are parameter failures, not promise breaches"
      `Quick (fun () ->
        (* even in runs where the naive protocol loses liveness, every
           escrow honoured the (badly derived) promises it issued: the flaw
           is in the window derivation, exactly the paper's point *)
        let max_delay : Sim.Network.adversary =
         fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds ->
          Some bounds.Sim.Network.hi
        in
        for seed = 1 to 20 do
          let cfg =
            {
              (Runner.default_config ~hops:5 ~seed) with
              drift_ppm = 80_000;
              delta = 200;
              margin = 1;
              adversary = Some max_delay;
            }
          in
          let o = Runner.run cfg Runner.Naive_universal in
          let v = PP.view o in
          check Alcotest.int "no breach" 0
            (List.length (Props.Promises.breaches v))
        done);
  ]

(* Monitor sensitivity: each checker must be able to fire. We synthesise
   outcomes exhibiting each violation (no honest component can produce
   them, which is the point) and check the monitor catches it. *)
let sensitivity_tests =
  let term pid tag t = obs t pid (Obs.Terminated { pid; outcome = tag }) in
  [
    Alcotest.test_case "CS1 fires: Alice paid out with no certificate" `Quick
      (fun () ->
        (* drain Alice's account so her net is negative, terminate her,
           give her no χ *)
        let o = synthetic_outcome ~entries:[ term 0 "certified" 500 ] in
        let topo = o.Runner.env.Protocols.Env.topo in
        let e0_book = o.Runner.env.Protocols.Env.books.(0) in
        (match
           Ledger.Book.transfer e0_book ~src:(Topology.alice topo)
             ~dst:(Topology.customer topo 1)
             ~amount:(Protocols.Env.amount_at o.Runner.env 0)
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "setup transfer failed");
        let v = PP.view o in
        check Alcotest.bool "CS1 violated" false (PF.check_cs1 v.PP.judge).V.holds);
    Alcotest.test_case "CS2 fires: Bob issued χ, terminated, unpaid" `Quick
      (fun () ->
        let o =
          synthetic_outcome
            ~entries:
              [
                obs 10 2 (Obs.Cert_issued { by = 2; kind = Obs.Chi });
                term 2 "gave-up" 600;
              ]
        in
        let v = PP.view o in
        check Alcotest.bool "CS2 violated" false (PF.check_cs2 v.PP.judge).V.holds);
    Alcotest.test_case "CS3 fires: a connector out of pocket" `Quick (fun () ->
        let o = synthetic_outcome ~entries:[ term 1 "paid" 700 ] in
        let topo = o.Runner.env.Protocols.Env.topo in
        let e1_book = o.Runner.env.Protocols.Env.books.(1) in
        (match
           Ledger.Book.transfer e1_book ~src:(Topology.customer topo 1)
             ~dst:(Topology.bob topo)
             ~amount:(Protocols.Env.amount_at o.Runner.env 1)
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "setup transfer failed");
        let v = PP.view o in
        check Alcotest.bool "CS3 violated" false (PF.check_cs3 v.PP.judge).V.holds);
    Alcotest.test_case "L fires: all abided, Bob unpaid" `Quick (fun () ->
        let o = synthetic_outcome ~entries:[] in
        let v = PP.view o in
        check Alcotest.bool "L violated" false
          (V.holds (PP.check_def1 ~time_bounded:false v) "L"));
    Alcotest.test_case "C fires: an honest participant was rejected" `Quick
      (fun () ->
        let o =
          synthetic_outcome
            ~entries:[ obs 5 3 (Obs.Rejected { pid = 3; what = "boom" }) ]
        in
        let v = PP.view o in
        check Alcotest.bool "C violated" false (PF.check_c v.PP.judge).V.holds);
    Alcotest.test_case "T fires: an active customer never terminates" `Quick
      (fun () ->
        (* Alice sent money (trace Sent) but never terminated *)
        let o = synthetic_outcome ~entries:[] in
        Sim.Trace.record o.Runner.trace
          (Sim.Trace.Sent
             { t = 5; src = 0; dst = 3; tag = "money"; msg = Msg.Money { amount = 1020 } });
        let v = PP.view o in
        check Alcotest.bool "T violated" false
          (V.holds (PP.check_def1 ~time_bounded:false v) "T"));
    Alcotest.test_case "ES holds even for synthetic runs (books are \
                        structurally safe)" `Quick (fun () ->
        (* the substrate makes ES violations unconstructible through the
           API: the monitor must still pass on arbitrary op sequences *)
        let o = synthetic_outcome ~entries:[] in
        let v = PP.view o in
        check Alcotest.bool "ES" true (PP.check_es v).V.holds);
  ]

let () =
  Alcotest.run "props"
    [
      ("verdict", verdict_tests);
      ("positive", positive_tests);
      ("negative", negative_tests);
      ("synthetic", cc_tests);
      ("sensitivity", sensitivity_tests);
      ("promises", promise_tests);
    ]

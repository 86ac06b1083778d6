(* End-to-end integration tests: miniature versions of the reproduction
   experiments asserting each headline result, plus cross-cutting checks
   (determinism, conservation across protocols, API facade). *)

open Protocols
module PP = Props.Payment_props
module V = Props.Verdict

let check = Alcotest.check

let max_delay : Sim.Network.adversary =
 fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds -> Some bounds.Sim.Network.hi

let chi_stall : Sim.Network.adversary =
 fun ~send_time:_ ~src:_ ~dst:_ ~tag ~bounds ->
  if String.equal tag "chi" then Some bounds.Sim.Network.hi
  else Some bounds.Sim.Network.lo

let headline_tests =
  [
    Alcotest.test_case "E1 headline: Thm 1 holds across seeds and drift"
      `Quick (fun () ->
        List.iter
          (fun drift ->
            for seed = 1 to 10 do
              let cfg =
                { (Runner.default_config ~hops:3 ~seed) with drift_ppm = drift }
              in
              let o = Runner.run cfg Runner.Sync_timebound in
              let v = PP.view o in
              check Alcotest.bool
                (Printf.sprintf "drift %d seed %d" drift seed)
                true
                (V.all_hold (PP.check_def1 ~time_bounded:true v))
            done)
          [ 0; 50_000 ]);
    Alcotest.test_case "E1 headline: termination within the a-priori bound"
      `Quick (fun () ->
        let cfg = Runner.default_config ~hops:4 ~seed:3 in
        let o = Runner.run cfg Runner.Sync_timebound in
        let horizon = o.Runner.params.Params.horizon in
        List.iter
          (fun (_, _, t) ->
            check Alcotest.bool "within bound" true (t <= horizon))
          (Runner.terminated_pids o));
    Alcotest.test_case "E2 headline: the adversary defeats every finite timeout"
      `Quick (fun () ->
        List.iter
          (fun scale ->
            let probe =
              Runner.derive_params
                { (Runner.default_config ~hops:2 ~seed:0) with
                  window_scale = Some (scale, 1) }
                Runner.Sync_timebound
            in
            let gst = (Array.fold_left max 0 probe.Params.a * 2) + 50_000 in
            let cfg =
              {
                (Runner.default_config ~hops:2 ~seed:1) with
                network = Runner.Psync { gst };
                adversary = Some chi_stall;
                window_scale = Some (scale, 1);
                horizon = Some (gst + 500_000);
              }
            in
            let o = Runner.run cfg Runner.Sync_timebound in
            let v = PP.view o in
            check Alcotest.bool
              (Printf.sprintf "scale %dx broken" scale)
              false
              (V.all_hold (PP.check_def1 ~time_bounded:false v)))
          [ 1; 4; 16 ]);
    Alcotest.test_case "E3 headline: Thm 3 holds under partial synchrony"
      `Quick (fun () ->
        List.iter
          (fun (gst, tm) ->
            for seed = 1 to 5 do
              let cfg =
                {
                  (Runner.default_config ~hops:2 ~seed) with
                  network = Runner.Psync { gst };
                }
              in
              let wc =
                { Weak_protocol.default_config with patience = gst + 60_000; tm }
              in
              let o = Runner.run cfg (Runner.Weak wc) in
              let v = PP.view o in
              check Alcotest.bool "def2" true
                (V.all_hold (PP.check_def2 ~patience_sufficient:true v));
              check Alcotest.bool "paid" true (PP.bob_paid v)
            done)
          [
            (500, Weak_protocol.Single);
            (500, Weak_protocol.Committee { f = 1 });
            (3_000, Weak_protocol.Single);
          ]);
    Alcotest.test_case "E4 headline: success is monotone in patience" `Quick
      (fun () ->
        let success patience =
          let hits = ref 0 in
          for seed = 1 to 12 do
            let gst = 200 + (seed * 250) in
            let cfg =
              {
                (Runner.default_config ~hops:2 ~seed) with
                network = Runner.Psync { gst };
              }
            in
            let wc = { Weak_protocol.default_config with patience } in
            let o = Runner.run cfg (Runner.Weak wc) in
            if PP.bob_paid (PP.view o) then incr hits
          done;
          !hits
        in
        let impatient = success 0 and patient = success 50_000 in
        check Alcotest.int "impatient never succeeds" 0 impatient;
        check Alcotest.int "patient always succeeds" 12 patient);
    Alcotest.test_case "E5 headline: the weak protocol locks value for far \
                        less time" `Quick (fun () ->
        let lock protocol =
          let cfg = Runner.default_config ~hops:8 ~seed:4 in
          PP.lock_time (PP.view (Runner.run cfg protocol))
        in
        let sync = lock Runner.Sync_timebound in
        let weak =
          lock
            (Runner.Weak
               { Weak_protocol.default_config with patience = Sim.Sim_time.infinity })
        in
        check Alcotest.bool "weak << sync" true (weak * 2 < sync));
    Alcotest.test_case "E9 headline: only the naive protocol breaks under \
                        drift" `Quick (fun () ->
        let violations protocol =
          let bad = ref 0 in
          for seed = 1 to 30 do
            let cfg =
              {
                (Runner.default_config ~hops:5 ~seed) with
                drift_ppm = 80_000;
                delta = 200;
                margin = 1;
                adversary = Some max_delay;
              }
            in
            let o = Runner.run cfg protocol in
            if not (V.all_hold (PP.check_def1 ~time_bounded:false (PP.view o)))
            then incr bad
          done;
          !bad
        in
        check Alcotest.int "tuned never" 0 (violations Runner.Sync_timebound);
        check Alcotest.bool "naive sometimes" true
          (violations Runner.Naive_universal > 0));
  ]

let explorer_tests =
  [
    Alcotest.test_case "E12: the tuned protocol is clean on all 1-hop corners"
      `Quick (fun () ->
        let r =
          Xchain.Explore.sweep ~hops:1 ~protocol:Runner.Sync_timebound ()
        in
        check Alcotest.int "corners" 512 r.Xchain.Explore.corners;
        check Alcotest.int "violations" 0 r.Xchain.Explore.violations);
    Alcotest.test_case "E12: the naive protocol fails on witnessed corners"
      `Quick (fun () ->
        let r =
          Xchain.Explore.sweep ~hops:1 ~protocol:Runner.Naive_universal ()
        in
        check Alcotest.bool "violations exist" true (r.Xchain.Explore.violations > 0);
        check Alcotest.bool "witness recorded" true
          (r.Xchain.Explore.first_witness <> None));
    Alcotest.test_case "E12/E10: HTLC fails CS1 on every corner — the                         certificate gap is structural, not a race" `Quick
      (fun () ->
        let r = Xchain.Explore.sweep ~hops:1 ~protocol:Runner.Htlc () in
        check Alcotest.int "all corners" r.Xchain.Explore.corners
          r.Xchain.Explore.violations);
    Alcotest.test_case "explorer rejects TM protocols" `Quick (fun () ->
        Alcotest.check_raises "weak"
          (Invalid_argument
             "Explore.message_budget: TM protocols are not corner-enumerable here")
          (fun () ->
            ignore
              (Xchain.Explore.sweep ~hops:1
                 ~protocol:(Runner.Weak Weak_protocol.default_config) ())));
    Alcotest.test_case "message budgets are exact for the chain protocols"
      `Quick (fun () ->
        (* a sweep enumerates 2^(messages + processes) corners; at 3 hops
           there are 7 processes *)
        let refused protocol corners =
          Alcotest.check_raises "refused"
            (Invalid_argument
               (Printf.sprintf "Explore.sweep: %d corners exceed the budget 0"
                  corners))
            (fun () ->
              ignore (Xchain.Explore.sweep ~hops:3 ~max_corners:0 ~protocol ()))
        in
        (* sync h3: 18 messages *)
        refused Runner.Sync_timebound (1 lsl (18 + 7));
        (* htlc h3: 16 messages *)
        refused Runner.Htlc (1 lsl (16 + 7)));
  ]

let report_tests =
  [
    Alcotest.test_case "postmortem of a happy run" `Quick (fun () ->
        let o = Runner.run (Runner.default_config ~hops:2 ~seed:1) Runner.Sync_timebound in
        let r = Xchain.Report.build o in
        check Alcotest.bool "headline" true
          (String.length r.Xchain.Report.headline > 0);
        check Alcotest.int "participants" 5
          (List.length r.Xchain.Report.participants);
        check Alcotest.bool "all conform" true
          (List.for_all
             (fun p -> p.Xchain.Report.conforms = Some (Ok ()))
             r.Xchain.Report.participants);
        check Alcotest.bool "no breaches" true (r.Xchain.Report.breaches = []);
        check Alcotest.bool "conserved" true r.Xchain.Report.conserved;
        check Alcotest.bool "verdicts hold" true
          (V.all_hold r.Xchain.Report.verdicts);
        (* the rendering mentions the participants *)
        let s = Fmt.str "%a" Xchain.Report.pp r in
        let mem sub =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "mentions Alice" true (mem "Alice");
        check Alcotest.bool "mentions properties" true (mem "properties:"));
    Alcotest.test_case "postmortem flags the thief" `Quick (fun () ->
        let topo = Topology.create ~hops:2 in
        let cfg =
          {
            (Runner.default_config ~hops:2 ~seed:1) with
            faults = [ (Topology.escrow topo 0, Byzantine.Thief_escrow) ];
          }
        in
        let r = Xchain.Report.build (Runner.run cfg Runner.Sync_timebound) in
        let thief =
          List.find
            (fun p -> p.Xchain.Report.pid = Topology.escrow topo 0)
            r.Xchain.Report.participants
        in
        check Alcotest.bool "marked byzantine" true (thief.Xchain.Report.byzantine <> None);
        check Alcotest.(option string) "deviates where the send of P is owed"
          (Some "send_p")
          (match thief.Xchain.Report.conforms with
          | Some (Error d) -> Some d.Anta.Conformance.state
          | Some (Ok ()) | None -> None));
    Alcotest.test_case "weak-protocol postmortem uses Def.2 and replays every automaton" `Quick (fun () ->
        let o =
          Runner.run (Runner.default_config ~hops:2 ~seed:1)
            (Runner.Weak Weak_protocol.default_config)
        in
        let r = Xchain.Report.build o in
        check Alcotest.bool "CC present" true
          (List.exists (fun v -> v.V.property = "CC") r.Xchain.Report.verdicts);
        check Alcotest.bool "every participant conforms" true
          (List.for_all
             (fun p -> p.Xchain.Report.conforms = Some (Ok ()))
             r.Xchain.Report.participants));
  ]

let crosscut_tests =
  [
    Alcotest.test_case "determinism: byte-identical reruns" `Quick (fun () ->
        let run () =
          let cfg =
            {
              (Runner.default_config ~hops:4 ~seed:77) with
              network = Runner.Psync { gst = 700 };
            }
          in
          let o = Runner.run cfg (Runner.Weak Weak_protocol.default_config) in
          ( o.Runner.message_count,
            o.Runner.end_time,
            Sim.Trace.length o.Runner.trace,
            Runner.terminated_pids o )
        in
        let m1, e1, t1, p1 = run () in
        let m2, e2, t2, p2 = run () in
        check Alcotest.int "msgs" m1 m2;
        check Alcotest.int "end" e1 e2;
        check Alcotest.int "trace" t1 t2;
        check Alcotest.int "terms" (List.length p1) (List.length p2));
    Alcotest.test_case "conservation holds in every protocol" `Quick (fun () ->
        List.iter
          (fun protocol ->
            for seed = 1 to 5 do
              let cfg = Runner.default_config ~hops:3 ~seed in
              let o = Runner.run cfg protocol in
              check Alcotest.bool "conserved" true
                (PP.money_conserved (PP.view o))
            done)
          [
            Runner.Sync_timebound;
            Runner.Naive_universal;
            Runner.Htlc;
            Runner.Weak Weak_protocol.default_config;
          ]);
    Alcotest.test_case "API facade: defaults succeed" `Quick (fun () ->
        let r = Xchain.Api.pay () in
        check Alcotest.bool "success" true r.Xchain.Api.success;
        check Alcotest.bool "props" true r.Xchain.Api.all_properties_hold;
        check Alcotest.bool "bob time known" true (r.Xchain.Api.bob_paid_at <> None));
    Alcotest.test_case "API facade: weak committee under psync" `Quick
      (fun () ->
        let r =
          Xchain.Api.pay ~hops:2
            ~network:(Xchain.Api.Partially_synchronous { gst = 400 })
            ~protocol:
              (Runner.Weak
                 { Weak_protocol.default_config with
                   patience = 60_000;
                   tm = Weak_protocol.Committee { f = 1 } })
            ()
        in
        check Alcotest.bool "success" true r.Xchain.Api.success);
    Alcotest.test_case "API facade: chain TM and atomic baselines" `Quick
      (fun () ->
        let chain =
          Xchain.Api.pay ~hops:2
            ~protocol:
              (Runner.Weak
                 { Weak_protocol.default_config with
                   patience = 60_000;
                   tm = Weak_protocol.Chain { validators = 3 } })
            ()
        in
        check Alcotest.bool "chain success" true chain.Xchain.Api.success;
        let atomic =
          Xchain.Api.pay ~hops:2
            ~protocol:(Runner.Atomic { Atomic_protocol.deadline = 5_000 })
            ()
        in
        check Alcotest.bool "atomic success" true atomic.Xchain.Api.success;
        let aborted =
          Xchain.Api.pay ~hops:2
            ~network:(Xchain.Api.Partially_synchronous { gst = 20_000 })
            ~protocol:(Runner.Atomic { Atomic_protocol.deadline = 1_000 })
            ()
        in
        check Alcotest.bool "atomic aborts past GST" false
          aborted.Xchain.Api.success;
        check Alcotest.bool "but safely" true
          aborted.Xchain.Api.all_properties_hold);
    Alcotest.test_case "API facade: participant names" `Quick (fun () ->
        let r = Xchain.Api.pay ~hops:2 () in
        let o = r.Xchain.Api.outcome in
        check Alcotest.string "alice" "Alice" (Xchain.Api.participant_name o 0);
        check Alcotest.string "chloe" "Chloe1" (Xchain.Api.participant_name o 1);
        check Alcotest.string "bob" "Bob" (Xchain.Api.participant_name o 2);
        check Alcotest.string "e0" "e0" (Xchain.Api.participant_name o 3));
    Alcotest.test_case "experiment registry is total" `Quick (fun () ->
        List.iter
          (fun name ->
            check Alcotest.bool name true (Xchain.Experiments.by_name name <> None))
          Xchain.Experiments.names;
        check Alcotest.bool "unknown" true (Xchain.Experiments.by_name "e99" = None));
    Alcotest.test_case "table rendering stays aligned" `Quick (fun () ->
        let t =
          Xchain.Table.make ~title:"t" ~header:[ "a"; "bb" ]
            [ [ "1"; "2" ]; [ "333"; "4" ] ]
        in
        let s = Fmt.str "%a" Xchain.Table.render t in
        check Alcotest.bool "has title" true
          (String.length s > 0
          &&
          let mem sub =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          mem "== t ==" && mem "333"));
    Alcotest.test_case "table rejects ragged rows" `Quick (fun () ->
        Alcotest.check_raises "ragged"
          (Invalid_argument "Table.make (x): row 0 has 1 cells, header has 2")
          (fun () ->
            ignore (Xchain.Table.make ~title:"x" ~header:[ "a"; "b" ] [ [ "1" ] ])));
    Alcotest.test_case "E10 sign structure: Alice never gains, Bob never \
                        loses" `Quick (fun () ->
        for seed = 1 to 10 do
          let cfg = Runner.default_config ~hops:2 ~seed in
          let o = Runner.run cfg Runner.Sync_timebound in
          let v = PP.view o in
          let topo = o.Runner.env.Env.topo in
          check Alcotest.bool "alice <= 0" true
            (v.PP.net (Topology.alice topo) <= 0);
          check Alcotest.bool "bob >= 0" true (v.PP.net (Topology.bob topo) >= 0)
        done);
  ]

let () =
  Alcotest.run "integration"
    [
      ("headline", headline_tests);
      ("explorer", explorer_tests);
      ("report", report_tests);
      ("crosscut", crosscut_tests);
    ]

(* Tests for the cross-chain deals library (§5): the deal model, the HLS
   acceptability predicate, the two commit protocols, and their property
   monitors. *)

open Deals
module Asset = Ledger.Asset

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let coin c n = Asset.make ~currency:c ~amount:n
let bag b = Fmt.str "%a" Asset.Bag.pp b

let model_tests =
  [
    Alcotest.test_case "make validates its input" `Quick (fun () ->
        Alcotest.check_raises "range" (Invalid_argument "Deal.make: party out of range")
          (fun () -> ignore (Deal.make ~parties:2 ~transfers:[ (0, 5, coin "a" 1) ]));
        Alcotest.check_raises "self" (Invalid_argument "Deal.make: self-transfer")
          (fun () -> ignore (Deal.make ~parties:2 ~transfers:[ (0, 0, coin "a" 1) ]));
        Alcotest.check_raises "zero" (Invalid_argument "Deal.make: zero asset")
          (fun () -> ignore (Deal.make ~parties:2 ~transfers:[ (0, 1, coin "a" 0) ]));
        Alcotest.check_raises "dup" (Invalid_argument "Deal.make: duplicate arc")
          (fun () ->
            ignore
              (Deal.make ~parties:2
                 ~transfers:[ (0, 1, coin "a" 1); (0, 1, coin "b" 1) ])));
    Alcotest.test_case "strong connectivity" `Quick (fun () ->
        (* every stock deal has arcs, so well-formed is strongly connected *)
        check Alcotest.bool "swap" true (Deal.well_formed (Deal.two_party_swap ()));
        check Alcotest.bool "cycle" true (Deal.well_formed (Deal.three_cycle ()));
        check Alcotest.bool "dag" false (Deal.well_formed (Deal.broker_dag ())));
    Alcotest.test_case "well-formedness needs arcs" `Quick (fun () ->
        check Alcotest.bool "no arcs" false
          (Deal.well_formed (Deal.make ~parties:1 ~transfers:[])));
    Alcotest.test_case "diameter" `Quick (fun () ->
        check Alcotest.int "swap" 1 (Deal.diameter (Deal.two_party_swap ()));
        check Alcotest.int "cycle" 2 (Deal.diameter (Deal.three_cycle ()));
        (* dag: some pairs unreachable -> penalised with [parties] *)
        check Alcotest.int "dag" 3 (Deal.diameter (Deal.broker_dag ())));
    Alcotest.test_case "expected gain and loss" `Quick (fun () ->
        let d = Deal.two_party_swap () in
        check Alcotest.string "p0 gains coinB" "{3 coinB}"
          (bag (Deal.expected_gain d 0));
        (* the loss bound shows through acceptability: losing more than
           the 5 coinA promised is not *)
        let gained = Deal.expected_gain d 0 in
        check Alcotest.bool "p0 loses coinA" true
          (Deal.acceptable d 0 ~gained ~lost:(Asset.Bag.of_list [ coin "coinA" 5 ]));
        check Alcotest.bool "p0 loses no more" false
          (Deal.acceptable d 0 ~gained ~lost:(Asset.Bag.of_list [ coin "coinA" 6 ]));
        (* in a cycle each party has exactly one incoming arc *)
        check Alcotest.string "p0 of a cycle" "{6 coinC}"
          (bag (Deal.expected_gain (Deal.three_cycle ()) 0)));
  ]

let acceptability_tests =
  let d = Deal.two_party_swap () in
  [
    Alcotest.test_case "full execution is acceptable" `Quick (fun () ->
        check Alcotest.bool "full" true
          (Deal.acceptable d 0
             ~gained:(Asset.Bag.of_list [ coin "coinB" 3 ])
             ~lost:(Asset.Bag.of_list [ coin "coinA" 5 ])));
    Alcotest.test_case "losing nothing is acceptable" `Quick (fun () ->
        check Alcotest.bool "nothing" true
          (Deal.acceptable d 0 ~gained:Asset.Bag.empty ~lost:Asset.Bag.empty));
    Alcotest.test_case "gaining without losing is acceptable" `Quick (fun () ->
        check Alcotest.bool "windfall" true
          (Deal.acceptable d 0
             ~gained:(Asset.Bag.of_list [ coin "coinB" 3 ])
             ~lost:Asset.Bag.empty));
    Alcotest.test_case "losing without gaining is unacceptable" `Quick (fun () ->
        check Alcotest.bool "robbed" false
          (Deal.acceptable d 0 ~gained:Asset.Bag.empty
             ~lost:(Asset.Bag.of_list [ coin "coinA" 5 ])));
    Alcotest.test_case "partial gain with full loss is unacceptable" `Quick
      (fun () ->
        check Alcotest.bool "short-changed" false
          (Deal.acceptable d 0
             ~gained:(Asset.Bag.of_list [ coin "coinB" 2 ])
             ~lost:(Asset.Bag.of_list [ coin "coinA" 5 ])));
    Alcotest.test_case "over-delivery on the gain side is acceptable" `Quick
      (fun () ->
        check Alcotest.bool "bonus" true
          (Deal.acceptable d 0
             ~gained:(Asset.Bag.of_list [ coin "coinB" 4 ])
             ~lost:(Asset.Bag.of_list [ coin "coinA" 5 ])));
  ]

let run ?(compliant = [||]) ?(gst = None) ?(seed = 11) deal protocol =
  let cfg = { (Deal_runner.default_config deal protocol) with gst; seed } in
  let cfg =
    if Array.length compliant = 0 then cfg
    else { cfg with Deal_runner.compliant }
  in
  Deal_runner.run cfg

let protocol_tests =
  [
    Alcotest.test_case "swap completes under timelock" `Quick (fun () ->
        let o = run (Deal.two_party_swap ()) Deal_runner.Timelock in
        check Alcotest.bool "all" true (Deal_props.all_hold (Deal_props.all o));
        check Alcotest.string "p0 got coinB" "{3 coinB}"
          (bag (Deal_runner.gained o 0));
        check Alcotest.string "p1 got coinA" "{5 coinA}"
          (bag (Deal_runner.gained o 1)));
    Alcotest.test_case "cycle completes under timelock" `Quick (fun () ->
        let o = run (Deal.three_cycle ()) Deal_runner.Timelock in
        check Alcotest.bool "all" true (Deal_props.all_hold (Deal_props.all o)));
    Alcotest.test_case "cbc completes under partial synchrony" `Quick (fun () ->
        let o = run ~gst:(Some 2_000) (Deal.three_cycle ()) Deal_runner.Cbc in
        check Alcotest.bool "all" true (Deal_props.all_hold (Deal_props.all o)));
    Alcotest.test_case "all-compliant broker DAG completes via the reveal \
                        cascade" `Quick (fun () ->
        let o = run (Deal.broker_dag ()) Deal_runner.Timelock in
        check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
        (* the broker recovers the full vote set from the on-chain claim of
           her outgoing leg and redeems her incoming one *)
        check Alcotest.string "broker got coinA" "{5 coinA}"
          (bag (Deal_runner.gained o 1)));
    Alcotest.test_case "disconnected deal refunds safely but is not live"
      `Quick (fun () ->
        let o = run (Deal.disconnected_pair ()) Deal_runner.Timelock in
        check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
        check Alcotest.bool "terminates" true
          (Deal_props.termination o).Deal_props.holds;
        check Alcotest.bool "not live" false
          (Deal_props.strong_liveness o).Deal_props.holds);
    Alcotest.test_case "broker DAG is safe under cbc" `Quick (fun () ->
        let o = run (Deal.broker_dag ()) Deal_runner.Cbc in
        check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds);
    Alcotest.test_case "a silent party aborts the timelock deal harmlessly"
      `Quick (fun () ->
        let o =
          run ~compliant:[| true; false; true |] (Deal.three_cycle ())
            Deal_runner.Timelock
        in
        check Alcotest.bool "safety" true (Deal_props.safety o).Deal_props.holds;
        check Alcotest.bool "termination" true
          (Deal_props.termination o).Deal_props.holds;
        (* nothing moved: every compliant deposit refunded *)
        check Alcotest.bool "p0 kept coinA" true
          (Asset.Bag.is_empty (Deal_runner.lost o 0)));
    Alcotest.test_case "a silent party aborts the cbc deal via patience" `Quick
      (fun () ->
        let o =
          run ~compliant:[| true; false; true |] (Deal.three_cycle ())
            Deal_runner.Cbc
        in
        check Alcotest.bool "safety" true (Deal_props.safety o).Deal_props.holds;
        check Alcotest.bool "termination" true
          (Deal_props.termination o).Deal_props.holds;
        (* the certifier must have issued an abort *)
        let aborted =
          List.exists
            (fun (_, _, ob) ->
              match ob with Dobs.Cb_decided { commit = false } -> true | _ -> false)
            (Sim.Trace.observations o.Deal_runner.trace)
        in
        check Alcotest.bool "cb aborted" true aborted);
    Alcotest.test_case "books audit after every run" `Quick (fun () ->
        List.iter
          (fun (deal, proto) ->
            let o = run deal proto in
            Array.iter
              (fun b ->
                check Alcotest.bool "audit" true (Result.is_ok (Ledger.Book.audit b)))
              o.Deal_runner.books)
          [
            (Deal.two_party_swap (), Deal_runner.Timelock);
            (Deal.three_cycle (), Deal_runner.Cbc);
            (Deal.broker_dag (), Deal_runner.Timelock);
          ]);
    Alcotest.test_case "a party outside every transfer terminates" `Quick (fun () ->
        let d = Deal.make ~parties:3 ~transfers:[ (0, 1, coin "a" 1); (1, 0, coin "b" 1) ] in
        List.iter
          (fun protocol ->
            let o = run d protocol in
            check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
            check Alcotest.bool "party 2 terminated" true
              (List.exists
                 (function _, _, Dobs.Terminated { pid = 2; _ } -> true | _ -> false)
                 (Sim.Trace.observations o.Deal_runner.trace)))
          [ Deal_runner.Timelock; Deal_runner.Cbc ]);
    Alcotest.test_case "compliant-size mismatch raises" `Quick (fun () ->
        Alcotest.check_raises "size"
          (Invalid_argument "Deal_runner.run: compliant array size mismatch")
          (fun () ->
            ignore
              (run ~compliant:[| true |] (Deal.two_party_swap ())
                 Deal_runner.Timelock)));
  ]

(* random well-formed deals: cycles with random extra chords *)
let random_deal_gen =
  QCheck.Gen.(
    let* parties = int_range 2 5 in
    let* extra = int_range 0 3 in
    let* seed = int_range 0 10_000 in
    return (parties, extra, seed))

let random_deal (parties, extra, seed) =
  let rng = Sim.Rng.create ~seed in
  let base =
    List.init parties (fun i ->
        (i, (i + 1) mod parties, coin (Printf.sprintf "c%d" i) (1 + Sim.Rng.int rng 9)))
  in
  let chords =
    List.filteri
      (fun k _ -> k < extra)
      (List.init 10 (fun k ->
           let from_ = Sim.Rng.int rng parties in
           let to_ = (from_ + 1 + Sim.Rng.int rng (parties - 1)) mod parties in
           (from_, to_, coin (Printf.sprintf "x%d" k) (1 + Sim.Rng.int rng 9))))
  in
  let seen = Hashtbl.create 8 in
  let transfers =
    List.filter
      (fun (f, t, _) ->
        if f = t || Hashtbl.mem seen (f, t) then false
        else begin
          Hashtbl.add seen (f, t) ();
          true
        end)
      (base @ chords)
  in
  Deal.make ~parties ~transfers

let property_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"well-formed deals satisfy all HLS properties"
         ~count:40
         (QCheck.make random_deal_gen)
         (fun spec ->
           let deal = random_deal spec in
           QCheck.assume (Deal.well_formed deal);
           let o = run deal Deal_runner.Timelock in
           Deal_props.all_hold (Deal_props.all o)));
    qcheck
      (QCheck.Test.make ~name:"termination holds on every deal, even ill-formed"
         ~count:40
         (QCheck.make random_deal_gen)
         (fun spec ->
           let deal = random_deal spec in
           let o = run deal Deal_runner.Timelock in
           (Deal_props.termination o).Deal_props.holds));
    qcheck
      (QCheck.Test.make ~name:"cbc is safe on every deal"
         ~count:30
         (QCheck.make random_deal_gen)
         (fun spec ->
           let deal = random_deal spec in
           let o = run deal Deal_runner.Cbc in
           (Deal_props.safety o).Deal_props.holds));
  ]

let byz_run ?(deal = Deal.three_cycle ()) ?(proto = Deal_runner.Timelock)
    ?(seed = 11) faults =
  let cfg = { (Deal_runner.default_config deal proto) with seed } in
  Deal_byzantine.run_with_faults cfg ~faults

let byzantine_tests =
  [
    Alcotest.test_case "freeloader gains nothing and hurts nobody" `Quick
      (fun () ->
        let o = byz_run [ (1, Deal_byzantine.Freeloader) ] in
        check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
        check Alcotest.bool "freeloader empty-handed" true
          (Asset.Bag.is_empty (Deal_runner.gained o 1)));
    Alcotest.test_case "forged votes never redeem a leg" `Quick (fun () ->
        let o = byz_run [ (1, Deal_byzantine.Forged_votes) ] in
        check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
        check Alcotest.bool "nothing paid to the forger" true
          (Asset.Bag.is_empty (Deal_runner.gained o 1));
        (* the escrow logged the rejection *)
        check Alcotest.bool "rejected" true
          (List.exists
             (fun (_, _, ob) ->
               match ob with Dobs.Rejected _ -> true | _ -> false)
             (Sim.Trace.observations o.Deal_runner.trace)));
    Alcotest.test_case "premature claims are rejected" `Quick (fun () ->
        let o = byz_run [ (1, Deal_byzantine.Premature_claim) ] in
        check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
        check Alcotest.bool "nothing gained" true
          (Asset.Bag.is_empty (Deal_runner.gained o 1)));
    Alcotest.test_case "double claims settle exactly once" `Quick (fun () ->
        let o = byz_run [ (1, Deal_byzantine.Double_claim) ] in
        (* the double claimer plays an otherwise honest game, so the deal
           completes; the ledger audit proves nothing was paid twice *)
        check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
        Array.iter
          (fun b ->
            check Alcotest.bool "audit" true (Result.is_ok (Ledger.Book.audit b)))
          o.Deal_runner.books;
        check Alcotest.string "paid once" "{4 coinB}"
          (bag (Deal_runner.gained o 2)));
    Alcotest.test_case "vote hoarding cannot break a well-formed deal" `Quick
      (fun () ->
        for seed = 1 to 10 do
          let o = byz_run ~seed [ (1, Deal_byzantine.Vote_hoarder) ] in
          check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds;
          check Alcotest.bool "terminates" true
            (Deal_props.termination o).Deal_props.holds
        done);
    Alcotest.test_case "lazy claiming is harmless in a strongly connected \
                        deal" `Quick (fun () ->
        for seed = 1 to 15 do
          let o = byz_run ~seed [ (2, Deal_byzantine.Lazy_claim) ] in
          check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds
        done);
    Alcotest.test_case "lazy claiming breaks the broker DAG's safety" `Quick
      (fun () ->
        let violated = ref 0 in
        for seed = 1 to 20 do
          let o =
            byz_run ~deal:(Deal.broker_dag ()) ~seed
              [ (2, Deal_byzantine.Lazy_claim) ]
          in
          if not (Deal_props.safety o).Deal_props.holds then incr violated
        done;
        check Alcotest.bool "some corner lost" true (!violated > 0));
    Alcotest.test_case "cbc keeps even the lazy broker DAG safe" `Quick
      (fun () ->
        for seed = 1 to 10 do
          let o =
            byz_run ~deal:(Deal.broker_dag ()) ~proto:Deal_runner.Cbc ~seed
              [ (2, Deal_byzantine.Lazy_claim) ]
          in
          check Alcotest.bool "safe" true (Deal_props.safety o).Deal_props.holds
        done);
  ]

(* Every stock deal under both commit protocols: its template network
   passes C's structural clause, and each honest participant's trace
   replays on its automaton; each deviant is named at the state where the
   replay of its honest automaton first parts from it. *)
let template_tests =
  let deals =
    [
      ("2-swap", Deal.two_party_swap);
      ("3-cycle", Deal.three_cycle);
      ("broker-dag", Deal.broker_dag);
      ("disconnected", Deal.disconnected_pair);
    ]
  in
  let protocols = [ ("timelock", Deal_runner.Timelock); ("cbc", Deal_runner.Cbc) ] in
  let each f =
    List.iter
      (fun (dn, deal) ->
        List.iter (fun (pn, p) -> f (dn ^ " " ^ pn) (deal ()) p) protocols)
      deals
  in
  let pids (o : Deal_runner.outcome) =
    List.init (Array.length (Deal_runner.template o.config)) Fun.id
  in
  let deviants =
    Deal_byzantine.
      [
        (Freeloader, Deal.three_cycle, Deal_runner.Timelock, 1, "deposit0");
        (Forged_votes, Deal.three_cycle, Deal_runner.Timelock, 1, "deposit0");
        (Premature_claim, Deal.three_cycle, Deal_runner.Timelock, 1, "deposit0");
        (Double_claim, Deal.three_cycle, Deal_runner.Timelock, 1, "voted.k7.f0");
        (Vote_hoarder, Deal.three_cycle, Deal_runner.Timelock, 1, "learn.k7.f0.0");
        (Lazy_claim, Deal.three_cycle, Deal_runner.Timelock, 2, "voted.k4.f0");
        (Lazy_claim, Deal.broker_dag, Deal_runner.Cbc, 2, "voted.k4.f0");
      ]
  in
  [
    Alcotest.test_case "a template is built once per deal, protocol and timing"
      `Quick (fun () ->
        let cfg = Deal_runner.default_config (Deal.three_cycle ()) Deal_runner.Cbc in
        let tmpl = Deal_runner.template cfg in
        (* seed, faults and schedule are not the template's: it is shared *)
        check Alcotest.bool "another seed, gst and budget share it" true
          (tmpl
          == Deal_runner.template
               { cfg with seed = 99; gst = Some 500; max_events = 10 });
        check Alcotest.bool "an equal deal built apart shares it" true
          (tmpl == Deal_runner.template { cfg with deal = Deal.three_cycle () });
        (* every field a builder reads keys it *)
        List.iter
          (fun (field, cfg') ->
            check Alcotest.bool (field ^ " builds its own") false
              (tmpl == Deal_runner.template cfg'))
          [
            ("deal", { cfg with deal = Deal.broker_dag () });
            ("protocol", { cfg with protocol = Deal_runner.Timelock });
            ("delta", { cfg with delta = cfg.delta + 1 });
            ("sigma", { cfg with sigma = cfg.sigma + 1 });
            ("drift", { cfg with drift_ppm = cfg.drift_ppm + 1 });
            ("patience", { cfg with cb_patience = cfg.cb_patience + 1 });
          ];
        (* the size check is not memoised *)
        Alcotest.check_raises "compliant size"
          (Invalid_argument "Deal_runner.run: compliant array size mismatch")
          (fun () -> ignore (Deal_runner.template { cfg with compliant = [| true |] })));
    Alcotest.test_case "every template network is well formed" `Quick (fun () ->
        each (fun label deal p ->
            let tmpl = Deal_runner.template (Deal_runner.default_config deal p) in
            check Alcotest.(result unit string) label (Ok ())
              (Anta.Network_check.well_formed tmpl)));
    Alcotest.test_case "every honest participant conforms to its automaton" `Quick
      (fun () ->
        each (fun label deal p ->
            for seed = 1 to 5 do
              let o = run ~seed deal p in
              List.iter
                (fun pid ->
                  match o.Deal_runner.conformance pid with
                  | Ok () -> ()
                  | Error d ->
                      Alcotest.failf "%s, seed %d: pid %d deviates in state %s: %s" label
                        seed pid d.Anta.Conformance.state d.Anta.Conformance.reason)
                (pids o)
            done));
    Alcotest.test_case "the replay names each deviant at its first deviation" `Quick
      (fun () ->
        List.iter
          (fun (t, deal, p, party, state) ->
            let cfg = Deal_runner.default_config (deal ()) p in
            let o = Deal_byzantine.run_with_faults cfg ~faults:[ (party, t) ] in
            let label = Printf.sprintf "%s at party %d" (Deal_byzantine.name t) party in
            List.iter
              (fun pid ->
                match (o.Deal_runner.conformance pid, pid = party) with
                | Error d, true ->
                    check Alcotest.string label state d.Anta.Conformance.state
                | Ok (), false -> ()
                | Ok (), true -> Alcotest.failf "%s conforms" label
                | Error d, false ->
                    Alcotest.failf "%s: pid %d wrongly flagged in state %s: %s" label pid
                      d.Anta.Conformance.state d.Anta.Conformance.reason)
              (pids o))
          deviants);
  ]

let () =
  Alcotest.run "deals"
    [
      ("model", model_tests);
      ("acceptability", acceptability_tests);
      ("protocols", protocol_tests);
      ("byzantine", byzantine_tests);
      ("random", property_tests);
      ("templates", template_tests);
    ]

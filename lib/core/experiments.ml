open Protocols
module PP = Props.Payment_props
module V = Props.Verdict

type scale = Quick | Full

let runs = function Quick -> 40 | Full -> 400
let small_runs = function Quick -> 10 | Full -> 60

(* Adversaries used across experiments. *)
let max_delay : Sim.Network.adversary =
 fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds -> Some bounds.Sim.Network.hi

let chi_stall : Sim.Network.adversary =
 fun ~send_time:_ ~src:_ ~dst:_ ~tag ~bounds ->
  if String.equal tag "chi" then Some bounds.Sim.Network.hi
  else Some bounds.Sim.Network.lo

let def1_holds ?(time_bounded = true) outcome =
  V.all_hold (PP.check ~time_bounded (PP.view outcome))

let pct hits total = Sim.Stats.rate ~hits ~total

(* ------------------------------------------------------------------ E1 *)

let e1_theorem1 scale =
  let n_runs = runs scale in
  let rows =
    List.concat_map
      (fun hops ->
        List.map
          (fun drift ->
            let ok = ref 0 in
            let worst_ratio = ref 0.0 in
            let msgs = ref [] in
            for seed = 1 to n_runs do
              let cfg =
                {
                  (Runner.default_config ~hops ~seed) with
                  drift_ppm = drift;
                }
              in
              let o = Runner.run cfg Runner.Sync_timebound in
              if def1_holds o then incr ok;
              msgs := o.Runner.message_count :: !msgs;
              let horizon =
                float_of_int o.Runner.params.Params.horizon
              in
              let last =
                List.fold_left
                  (fun acc (_, _, t) -> max acc (float_of_int t))
                  0.0
                  (Runner.terminated_pids o)
              in
              worst_ratio := max !worst_ratio (last /. horizon)
            done;
            [
              Table.cell_i hops;
              Printf.sprintf "%.1f%%" (float_of_int drift /. 10_000.0);
              Table.cell_i n_runs;
              Table.cell_pct (pct !ok n_runs);
              Printf.sprintf "%.2f" !worst_ratio;
              Table.cell_f (Sim.Stats.mean (List.map float_of_int !msgs));
            ])
          [ 0; 10_000; 50_000 ])
      [ 1; 2; 4; 8 ]
  in
  Table.make ~title:"E1 (Thm 1): time-bounded protocol under synchrony"
    ~header:
      [ "hops"; "drift"; "runs"; "all C,T,ES,CS,L"; "worst T/bound"; "msgs" ]
    ~notes:
      [
        "every row must show 100%: Thm 1 claims all properties on every \
         synchronous schedule";
        "worst T/bound < 1 certifies the a-priori termination bound";
      ]
    rows

(* ------------------------------------------------------------------ E2 *)

let e2_impossibility scale =
  let n_runs = small_runs scale in
  let candidates =
    [ ("0.5x", (1, 2)); ("1x", (1, 1)); ("2x", (2, 1)); ("8x", (8, 1));
      ("32x", (32, 1)); ("no-timeout", (100_000, 1)) ]
  in
  let rows =
    List.map
      (fun (label, (num, den)) ->
        (* the adversary inspects the candidate and delays χ past its
           windows: GST is placed beyond the largest refund window *)
        let probe =
          Runner.derive_params
            { (Runner.default_config ~hops:3 ~seed:0) with
              window_scale = Some (num, den) }
            Runner.Sync_timebound
        in
        let biggest = Array.fold_left max 0 probe.Params.a in
        let gst = Sim.Sim_time.add (Sim.Sim_time.scale biggest ~num:2 ~den:1) 50_000 in
        let t_violated = ref 0 and l_violated = ref 0 and paid = ref 0 in
        let random_paid = ref 0 in
        for seed = 1 to n_runs do
          let base =
            {
              (Runner.default_config ~hops:3 ~seed) with
              network = Runner.Psync { gst };
              window_scale = Some (num, den);
              horizon = Some (Sim.Sim_time.add gst 2_000_000);
            }
          in
          let o =
            Runner.run { base with adversary = Some chi_stall }
              Runner.Sync_timebound
          in
          let v = PP.view o in
          if not (V.holds (PP.check v) "T") then incr t_violated;
          if not (V.holds (PP.check v) "L") then incr l_violated;
          if PP.bob_paid v then incr paid;
          (* same GST, same windows, but delays sampled randomly: the
             impossibility needs the adversary, not bad luck *)
          let o_rand = Runner.run base Runner.Sync_timebound in
          if PP.bob_paid (PP.view o_rand) then incr random_paid
        done;
        [
          label;
          Sim.Sim_time.to_string biggest;
          Sim.Sim_time.to_string gst;
          Table.cell_pct (pct !t_violated n_runs);
          Table.cell_pct (pct !l_violated n_runs);
          Table.cell_pct (pct !paid n_runs);
          Table.cell_pct (pct !random_paid n_runs);
        ])
      candidates
  in
  Table.make
    ~title:
      "E2 (Thm 2): no eventually-terminating protocol under partial synchrony"
    ~header:
      [ "timeouts"; "max window"; "adversary GST"; "T violated"; "L violated";
        "Bob paid"; "paid (random)" ]
    ~notes:
      [
        "for every finite timeout the adversary stalls χ past the window: \
         refunds fire, Bob stays unpaid (T and L break)";
        "the no-timeout candidate never refunds, so customers wait \
         unboundedly: T(eventual) breaks within any finite observation — \
         the dichotomy of the impossibility proof";
        "the last column re-runs the same configurations with random \
         (non-adversarial) delays: Thm 2 is a worst-case statement, and \
         the adversary is what realises it";
      ]
    rows

(* ------------------------------------------------------------------ E3 *)

let weak_cfg ?(tm = Weak_protocol.Single) ~patience () =
  { Weak_protocol.default_config with tm; patience }

let e3_weak_protocol scale =
  let n_runs = small_runs scale in
  let rows =
    List.concat_map
      (fun hops ->
        List.concat_map
          (fun gst ->
            List.map
              (fun (tm_label, tm) ->
                let ok = ref 0 and paid = ref 0 in
                for seed = 1 to n_runs do
                  let patience = Sim.Sim_time.add gst 60_000 in
                  let cfg =
                    {
                      (Runner.default_config ~hops ~seed) with
                      network = Runner.Psync { gst };
                    }
                  in
                  let o = Runner.run cfg (Runner.Weak (weak_cfg ~tm ~patience ())) in
                  let v = PP.view o in
                  if V.all_hold (PP.check ~patience_sufficient:true v)
                  then incr ok;
                  if PP.bob_paid v then incr paid
                done;
                [
                  Table.cell_i hops;
                  Sim.Sim_time.to_string gst;
                  tm_label;
                  Table.cell_i n_runs;
                  Table.cell_pct (pct !ok n_runs);
                  Table.cell_pct (pct !paid n_runs);
                ])
              [
                ("single", Weak_protocol.Single);
                ("committee f=1", Weak_protocol.Committee { f = 1 });
                ("chain m=4", Weak_protocol.Chain { validators = 4 });
              ])
          [ 0; 2_000; 10_000 ])
      [ 1; 2; 4 ]
  in
  Table.make
    ~title:"E3 (Thm 3): weak protocol under partial synchrony"
    ~header:[ "hops"; "GST"; "TM"; "runs"; "all Def.2 props"; "Bob paid" ]
    ~notes:
      [
        "patience is set beyond GST, so weak liveness applies: both columns \
         must be 100%";
      ]
    rows

(* ------------------------------------------------------------------ E4 *)

let e4_patience_sweep scale =
  let n_runs = runs scale in
  let rows =
    List.map
      (fun patience ->
        let paid = ref 0 and aborted = ref 0 and safe = ref 0 in
        for seed = 1 to n_runs do
          let gst_rng = Sim.Rng.create ~seed:(seed * 7919) in
          let gst = Sim.Rng.int_in gst_rng ~lo:0 ~hi:4_000 in
          let cfg =
            {
              (Runner.default_config ~hops:3 ~seed) with
              network = Runner.Psync { gst };
            }
          in
          let o = Runner.run cfg (Runner.Weak (weak_cfg ~patience ())) in
          let v = PP.view o in
          if PP.bob_paid v then incr paid;
          if
            List.exists
              (fun (_, _, ob) ->
                match ob with Obs.Abort_requested _ -> true | _ -> false)
              (Runner.observations o)
          then incr aborted;
          let report = PP.check v in
          if V.all_hold report then incr safe
        done;
        [
          Sim.Sim_time.to_string patience;
          Table.cell_i n_runs;
          Table.cell_pct (pct !paid n_runs);
          Table.cell_pct (pct !aborted n_runs);
          Table.cell_pct (pct !safe n_runs);
        ])
      [ 0; 250; 500; 1_000; 2_000; 4_000; 8_000; 16_000 ]
  in
  Table.make
    ~title:"E4: success vs patience (weak liveness is conditional)"
    ~header:[ "patience"; "runs"; "Bob paid"; "abort requested"; "safety props" ]
    ~notes:
      [
        "GST uniform in [0, 4000]: success climbs to 100% once patience \
         outlasts stabilization; safety stays at 100% at every patience — \
         aborting early loses liveness, never money";
      ]
    rows

(* ------------------------------------------------------------------ E5 *)

let e5_scaling scale =
  let n_runs = small_runs scale in
  let protocols =
    [
      ("sync", fun () -> Runner.Sync_timebound);
      ("htlc", fun () -> Runner.Htlc);
      ("weak", fun () -> Runner.Weak (weak_cfg ~patience:Sim.Sim_time.infinity ()));
      ("atomic", fun () -> Runner.Atomic { Atomic_protocol.deadline = 200_000 });
    ]
  in
  let rows =
    List.concat_map
      (fun hops ->
        List.map
          (fun (label, proto) ->
            let msgs = ref [] and latency = ref [] and lock = ref [] in
            for seed = 1 to n_runs do
              let cfg = Runner.default_config ~hops ~seed in
              let o = Runner.run cfg (proto ()) in
              let v = PP.view o in
              msgs := float_of_int o.Runner.message_count :: !msgs;
              lock := float_of_int (PP.lock_time v) :: !lock;
              (* Bob is pid [hops] *)
              Option.iter
                (fun (t, _) -> latency := float_of_int t :: !latency)
                (v.PP.terminated hops)
            done;
            [
              Table.cell_i hops;
              label;
              Table.cell_f (Sim.Stats.mean !msgs);
              Table.cell_f (Sim.Stats.mean !latency);
              Table.cell_f (Sim.Stats.mean !lock);
            ])
          protocols)
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Table.make ~title:"E5: cost scaling with chain length (all-honest, sync)"
    ~header:[ "hops"; "protocol"; "msgs"; "Bob latency"; "total lock time" ]
    ~notes:
      [
        "messages grow linearly for all four; HTLC and sync lock value \
         for nested windows (quadratic-ish growth), while the TM-based \
         protocols (weak, atomic) release as soon as the decision lands";
      ]
    rows

(* ------------------------------------------------------------------ E6 *)

let e6_fault_matrix scale =
  let n_runs = max 5 (small_runs scale / 2) in
  let hops = 3 in
  let cases =
    (* (role label, pid, strategy, protocol) *)
    let topo = Topology.create ~hops in
    let sync = Runner.Sync_timebound in
    let weak () = Runner.Weak (weak_cfg ~patience:20_000 ()) in
    [
      ("Alice", Topology.alice topo, Byzantine.Crash_at_start, sync);
      ("Alice", Topology.alice topo, Byzantine.Double_money_customer, sync);
      ("Chloe1", Topology.customer topo 1, Byzantine.Crash_at_start, sync);
      ("Chloe1", Topology.customer topo 1, Byzantine.Forge_chi_connector, sync);
      ("Chloe2", Topology.customer topo 2, Byzantine.Mute, sync);
      ("Bob", Topology.bob topo, Byzantine.Withhold_chi_bob, sync);
      ("Bob", Topology.bob topo, Byzantine.Eager_chi_bob, sync);
      ("e0", Topology.escrow topo 0, Byzantine.Thief_escrow, sync);
      ("e1", Topology.escrow topo 1, Byzantine.Premature_refund_escrow, sync);
      ("e1", Topology.escrow topo 1, Byzantine.No_resolve_escrow, sync);
      ("e2", Topology.escrow topo 2, Byzantine.Crash_at_start, sync);
      ("Alice", Topology.alice topo, Byzantine.Impatient 100, weak ());
      ("Chloe1", Topology.customer topo 1, Byzantine.Never_deposit, weak ());
      ("e1", Topology.escrow topo 1, Byzantine.False_funded_escrow, weak ());
      ("Bob", Topology.bob topo, Byzantine.Impatient 100, weak ());
    ]
  in
  let pair_cases =
    let topo = Topology.create ~hops in
    [
      ( "e0+Bob",
        [ (Topology.escrow topo 0, Byzantine.Thief_escrow);
          (Topology.bob topo, Byzantine.Eager_chi_bob) ],
        Runner.Sync_timebound );
      ( "Chloe1+e2",
        [ (Topology.customer topo 1, Byzantine.Forge_chi_connector);
          (Topology.escrow topo 2, Byzantine.Premature_refund_escrow) ],
        Runner.Sync_timebound );
      ( "Alice+e1",
        [ (Topology.alice topo, Byzantine.Impatient 0);
          (Topology.escrow topo 1, Byzantine.False_funded_escrow) ],
        Runner.Weak (weak_cfg ~patience:20_000 ()) );
    ]
  in
  let single_rows =
    List.map
      (fun (role, pid, strategy, protocol) ->
        let ok = ref 0 and paid = ref 0 and detail = ref "" in
        for seed = 1 to n_runs do
          let cfg =
            {
              (Runner.default_config ~hops ~seed) with
              faults = [ (pid, strategy) ];
            }
          in
          let o = Runner.run cfg protocol in
          let v = PP.view o in
          let report = PP.check v in
          if V.all_hold report then incr ok
          else if String.equal !detail "" then
            detail :=
              Fmt.str "%a" Fmt.(list ~sep:(any "; ") V.pp) (V.failures report);
          if PP.bob_paid v then incr paid
        done;
        [
          role;
          Byzantine.name strategy;
          Runner.protocol_name
            (match protocol with p -> p);
          Table.cell_pct (pct !ok n_runs);
          Table.cell_pct (pct !paid n_runs);
          (if String.equal !detail "" then "-" else !detail);
        ])
      cases
  in
  let pair_rows =
    List.map
      (fun (label, faults, protocol) ->
        let ok = ref 0 and paid = ref 0 in
        for seed = 1 to n_runs do
          let cfg = { (Runner.default_config ~hops ~seed) with faults } in
          let o = Runner.run cfg protocol in
          let v = PP.view o in
          let report = PP.check v in
          if V.all_hold report && PP.money_conserved v then incr ok;
          if PP.bob_paid v then incr paid
        done;
        [
          label;
          "two strategies";
          Runner.protocol_name protocol;
          Table.cell_pct (pct !ok n_runs);
          Table.cell_pct (pct !paid n_runs);
          "-";
        ])
      pair_cases
  in
  let rows = single_rows @ pair_rows in
  Table.make
    ~title:"E6: Byzantine fault matrix (safety is per-role unconditional)"
    ~header:
      [ "byzantine"; "strategy"; "protocol"; "guarantees hold"; "Bob paid";
        "violations" ]
    ~notes:
      [
        "'guarantees hold' must be 100% everywhere: each property is \
         conditioned exactly as the paper states it, so a deviating party \
         voids only its own dependents' guarantees";
        "Bob-paid may drop to 0 — liveness L is the only property that \
         assumes everyone abides";
      ]
    rows

(* ------------------------------------------------------------------ E7 *)

let e7_deals scale =
  let n_runs = max 5 (small_runs scale / 2) in
  let open Deals in
  let cases =
    (* (deal label, deal, protocol label, protocol, gst, faults) *)
    [
      ("2-swap", Deal.two_party_swap, "timelock", Deal_runner.Timelock, None, []);
      ("2-swap", Deal.two_party_swap, "cbc", Deal_runner.Cbc, Some 3_000, []);
      ("3-cycle", Deal.three_cycle, "timelock", Deal_runner.Timelock, None, []);
      ("3-cycle", Deal.three_cycle, "cbc", Deal_runner.Cbc, Some 3_000, []);
      ("broker-dag", Deal.broker_dag, "timelock", Deal_runner.Timelock, None, []);
      ( "disconnected", Deal.disconnected_pair, "timelock",
        Deal_runner.Timelock, None, [] );
      ( "3-cycle", Deal.three_cycle, "timelock", Deal_runner.Timelock, None,
        [ (2, Deal_byzantine.Lazy_claim) ] );
      ( "broker-dag", Deal.broker_dag, "timelock", Deal_runner.Timelock, None,
        [ (2, Deal_byzantine.Lazy_claim) ] );
      ( "broker-dag", Deal.broker_dag, "cbc", Deal_runner.Cbc, Some 3_000,
        [ (2, Deal_byzantine.Lazy_claim) ] );
    ]
  in
  let rows =
    List.map
      (fun (dlabel, mk, plabel, proto, gst, faults) ->
        let s = ref 0 and t = ref 0 and l = ref 0 in
        for seed = 1 to n_runs do
          let cfg = { (Deal_runner.default_config (mk ()) proto) with gst; seed } in
          let o =
            if faults = [] then Deal_runner.run cfg
            else Deal_byzantine.run_with_faults cfg ~faults
          in
          if (Deal_props.safety o).Deal_props.holds then incr s;
          if (Deal_props.termination o).Deal_props.holds then incr t;
          if (Deal_props.strong_liveness o).Deal_props.holds then incr l
        done;
        let deal = mk () in
        [
          dlabel;
          Table.cell_b (Deal.well_formed deal);
          plabel;
          (match faults with
          | [] -> "-"
          | (p, f) :: _ -> Printf.sprintf "p%d %s" p (Deal_byzantine.name f));
          Table.cell_pct (pct !s n_runs);
          Table.cell_pct (pct !t n_runs);
          Table.cell_pct (pct !l n_runs);
        ])
      cases
  in
  Table.make
    ~title:"E7 (§5): HLS deal commit protocols and well-formedness"
    ~header:
      [ "deal"; "well-formed"; "protocol"; "byzantine"; "safety";
        "termination"; "strong liveness" ]
    ~notes:
      [
        "well-formed (strongly connected) deals keep all three properties, \
         with or without the Byzantine party: every party assembles the \
         vote set by forward gossip, on its own schedule";
        "non-well-formed deals: the disconnected pair loses strong \
         liveness outright; the broker DAG depends on the on-chain reveal \
         cascade, which a lazily-claiming Byzantine party defeats — \
         safety falls below 100%, the sharp edge of HLS's hypothesis";
        "the certificate-gated cbc protocol keeps even ill-formed deals \
         safe, at the price of trusting the certifier (cf. the paper's TM)";
      ]
    rows

(* ------------------------------------------------------------------ E8 *)

let e8_tm_committee scale =
  let n_runs = small_runs scale in
  let mk_faults n l = Array.init n (fun i -> if List.mem i l then Weak_protocol.Notary_crash else Weak_protocol.Notary_honest) in
  let cases =
    [
      ("single", Weak_protocol.Single, [||]);
      ("chain m=4", Weak_protocol.Chain { validators = 4 }, [||]);
      ("committee f=1", Weak_protocol.Committee { f = 1 }, [||]);
      ("f=1, 1 crash", Weak_protocol.Committee { f = 1 }, mk_faults 4 [ 0 ]);
      ( "f=1, equivocator",
        Weak_protocol.Committee { f = 1 },
        [| Weak_protocol.Notary_equivocate; Weak_protocol.Notary_honest;
           Weak_protocol.Notary_honest; Weak_protocol.Notary_honest |] );
      ("f=2, 2 crashes", Weak_protocol.Committee { f = 2 }, mk_faults 7 [ 1; 3 ]);
    ]
  in
  let rows =
    List.concat_map
      (fun gst ->
        List.map
          (fun (label, tm, notary_faults) ->
            let cc_ok = ref 0 and decided = ref 0 and lat = ref [] in
            for seed = 1 to n_runs do
              let patience = Sim.Sim_time.add gst 80_000 in
              let wc =
                { (weak_cfg ~tm ~patience ()) with notary_faults }
              in
              let cfg =
                {
                  (Runner.default_config ~hops:2 ~seed) with
                  network = Runner.Psync { gst };
                }
              in
              let o = Runner.run cfg (Runner.Weak wc) in
              let v = PP.view o in
              if V.holds (PP.check v) "CC"
              then incr cc_ok;
              (match
                 List.find_map
                   (fun (t, _, ob) ->
                     match ob with
                     | Obs.Decision_made _ -> Some t
                     | _ -> None)
                   (Runner.observations o)
              with
              | Some t ->
                  incr decided;
                  lat := float_of_int t :: !lat
              | None -> ())
            done;
            [
              label;
              Sim.Sim_time.to_string gst;
              Table.cell_pct (pct !cc_ok n_runs);
              Table.cell_pct (pct !decided n_runs);
              (if !lat = [] then "-" else Table.cell_f (Sim.Stats.mean !lat));
            ])
          cases)
      [ 0; 2_000 ]
  in
  Table.make
    ~title:"E8: transaction-manager instantiations under partial synchrony"
    ~header:[ "TM"; "GST"; "CC holds"; "decided"; "mean decision time" ]
    ~notes:
      [
        "CC must hold at 100% in every row — agreement survives crashes \
         and equivocation with at most f faulty notaries";
        "decision latency grows with GST and with faulty leaders (round \
         changes), as DLS predicts";
      ]
    rows

(* ------------------------------------------------------------------ E9 *)

let e9_drift scale =
  let n_runs = runs scale in
  let violations protocol drift =
    let bad = ref 0 in
    for seed = 1 to n_runs do
      let cfg =
        {
          (Runner.default_config ~hops:5 ~seed) with
          drift_ppm = drift;
          delta = 200;
          margin = 1;
          adversary = Some max_delay;
        }
      in
      let o = Runner.run cfg protocol in
      if not (def1_holds ~time_bounded:false o) then incr bad
    done;
    !bad
  in
  let rows =
    List.map
      (fun drift ->
        let naive = violations Runner.Naive_universal drift in
        let tuned = violations Runner.Sync_timebound drift in
        let lo, hi = Sim.Stats.wilson ~hits:naive ~total:n_runs in
        [
          Printf.sprintf "%.1f%%" (float_of_int drift /. 10_000.0);
          Table.cell_i n_runs;
          Table.cell_pct (pct naive n_runs);
          Printf.sprintf "[%.1f, %.1f]" lo hi;
          Table.cell_pct (pct tuned n_runs);
        ])
      [ 0; 2_500; 5_000; 10_000; 20_000; 40_000; 80_000 ]
  in
  Table.make
    ~title:
      "E9: clock drift — naive universal protocol vs drift-tuned (Thm 1)"
    ~header:
      [ "drift"; "runs"; "naive violations"; "95% CI"; "tuned violations" ]
    ~notes:
      [
        "worst-case-delay adversary, 5 hops, margin 1 tick: the naive \
         (drift-blind) windows lose the race once drift exceeds the margin \
         — the tuned column must stay at 0%";
      ]
    rows

(* ----------------------------------------------------------------- E10 *)

let e10_embedding _scale =
  let open Deals in
  (* (a) run a 2-hop payment encoded as an HLS deal: Alice -> Chloe 1010,
     Chloe -> Bob 1000. The deal succeeds, but no χ-like certificate exists
     anywhere in the trace, so the payment spec (CS1) is unsatisfiable. *)
  let payment_as_deal =
    Deal.make ~parties:3
      ~transfers:
        [
          (0, 1, Ledger.Asset.make ~currency:"cur0" ~amount:1010);
          (1, 2, Ledger.Asset.make ~currency:"cur1" ~amount:1000);
          (2, 0, Ledger.Asset.make ~currency:"receipt" ~amount:1);
          (* the receipt arc is the only way to make the deal well-formed:
             it forces Bob to hand something back, which a pure payment
             does not model *)
        ]
  in
  let o = Deal_runner.run (Deal_runner.default_config payment_as_deal Deal_runner.Timelock) in
  let deal_ok = Deal_props.all_hold (Deal_props.all o) in
  let has_transferable_cert =
    (* a message delivered to Alice (party 0) attesting that Bob's incoming
       leg (arc 1) paid out: its payout notice or a commit certificate;
       votes are pre-commitments, not payment attestations *)
    List.exists
      (function
        | Sim.Trace.Delivered { dst = 0; msg = Dmsg.Paid { arc = 1 }; _ } -> true
        | Sim.Trace.Delivered { dst = 0; msg = Dmsg.Cb_cert sv; _ } ->
            sv.Xcrypto.Auth.payload.Dmsg.c_commit
        | _ -> false)
      (Sim.Trace.to_list o.Deal_runner.trace)
  in
  (* (b) a swap deal needs value to flow in both directions between the
     same two parties; in every payment-protocol run value flows only from
     Alice toward Bob. We verify the sign structure over many runs. *)
  let sign_structure_ok = ref true in
  for seed = 1 to 20 do
    let cfg = Runner.default_config ~hops:2 ~seed in
    let o = Runner.run cfg Runner.Sync_timebound in
    let v = PP.view o in
    let topo = o.Runner.env.Env.topo in
    if v.PP.net (Topology.alice topo) > 0 then
      sign_structure_ok := false;
    if v.PP.net (Topology.bob topo) < 0 then sign_structure_ok := false
  done;
  (* (c) the HTLC baseline has the same certificate gap: it pays Bob on
     every synchronous happy path, and Alice still ends without χ — CS1 is
     structurally unsatisfiable for hashed-timelock chains. *)
  let htlc_paid = ref 0 and htlc_cs1 = ref 0 in
  for seed = 1 to 20 do
    let o = Runner.run (Runner.default_config ~hops:2 ~seed) Runner.Htlc in
    let v = PP.view o in
    if PP.bob_paid v then incr htlc_paid;
    if V.holds (PP.check v) "CS1" then incr htlc_cs1
  done;
  let rows =
    [
      [
        "payment as deal";
        Table.cell_b (Deal.well_formed payment_as_deal);
        Table.cell_b deal_ok;
        Table.cell_b has_transferable_cert;
        "deal succeeds but cannot produce χ: CS1/CS2 unsatisfiable";
      ];
      [
        "payment as HTLC";
        "n/a";
        Table.cell_b (!htlc_paid = 20 && !htlc_cs1 = 0);
        "no";
        Fmt.str
          "HTLC pays Bob in %d/20 runs yet Alice never holds χ (CS1 fails \
           in all %d): the preimage is a receipt, not a transferable \
           certificate"
          !htlc_paid (20 - !htlc_cs1);
      ];
      [
        "deal as payment";
        "n/a";
        Table.cell_b !sign_structure_ok;
        "n/a";
        "payment value flow is one-directional: Alice never gains, Bob \
         never loses — a swap is inexpressible";
      ];
    ]
  in
  Table.make
    ~title:"E10 (§5): payments are not deals; deals are not payments"
    ~header:[ "direction"; "well-formed"; "holds"; "cert exists"; "conclusion" ]
    ~notes:
      [
        "mechanical counterexamples illustrating the full paper's claim \
         that neither problem subsumes the other";
        "(a): even force-closing the deal graph with a receipt arc, no \
         transferable certificate χ exists in any deal-protocol trace";
        "(b): sign structure of net positions verified over 20 runs";
      ]
    rows

(* ----------------------------------------------------------------- E11 *)

let e11_atomic_vs_weak scale =
  let n_runs = small_runs scale in
  let deadline = 5_000 in
  let rows =
    List.map
      (fun gst ->
        let atomic_ok = ref 0 and weak_ok = ref 0 and safe = ref 0 in
        for seed = 1 to n_runs do
          let base =
            {
              (Runner.default_config ~hops:3 ~seed) with
              network = (if gst = 0 then Runner.Sync else Runner.Psync { gst });
            }
          in
          let oa = Runner.run base (Runner.Atomic { Atomic_protocol.deadline }) in
          let va = PP.view oa in
          if PP.bob_paid va then incr atomic_ok;
          if
            V.all_hold (PP.check va)
            && PP.money_conserved va
          then incr safe;
          let ow =
            Runner.run base
              (Runner.Weak
                 { Weak_protocol.default_config with
                   patience = Sim.Sim_time.add gst 60_000 })
          in
          if PP.bob_paid (PP.view ow) then incr weak_ok
        done;
        [
          Sim.Sim_time.to_string gst;
          Table.cell_i n_runs;
          Table.cell_pct (pct !atomic_ok n_runs);
          Table.cell_pct (pct !weak_ok n_runs);
          Table.cell_pct (pct !safe n_runs);
        ])
      [ 0; 1_000; 2_000; 4_000; 8_000; 16_000 ]
  in
  Table.make
    ~title:
      "E11: Interledger atomic protocol (fixed deadline 5000) vs weak \
       protocol (patience > GST)"
    ~header:[ "GST"; "runs"; "atomic success"; "weak success"; "atomic safety" ]
    ~notes:
      [
        "the atomic protocol's notary deadline is fixed before the (unknown) \
         network stabilisation: success collapses once GST approaches it, \
         although safety never breaks — exactly why the paper says prior \
         work established no success guarantees";
        "the weak protocol's patience is chosen by the customers and can \
         always outlast GST";
      ]
    rows

(* ----------------------------------------------------------------- E12 *)

let e12_exhaustive_corners ?domains scale =
  let cases =
    [ (1, Runner.Sync_timebound, "tuned"); (1, Runner.Naive_universal, "naive") ]
    @ (match scale with
      | Full -> [ (2, Runner.Sync_timebound, "tuned") ]
      | Quick -> [])
  in
  let rows =
    List.map
      (fun (hops, protocol, label) ->
        let r = Explore.sweep ~hops ~drift_ppm:50_000 ?domains ~protocol () in
        [
          Table.cell_i hops;
          label;
          Table.cell_i r.Explore.corners;
          Table.cell_i r.Explore.violations;
          Option.value ~default:"-" r.Explore.first_witness;
        ])
      cases
  in
  Table.make
    ~title:"E12: exhaustive extremal-corner verification (all delay x clock corners)"
    ~header:[ "hops"; "protocol"; "corners"; "violations"; "first witness" ]
    ~notes:
      [
        "the window inequalities are monotone in delays and clock rates, so \
         the binding schedules sit at the enumerated corners: a clean tuned \
         column is an exhaustive statement about them, not a sample";
        "5% drift; witnesses name the exact delay/clock bit patterns";
      ]
    rows

(* ------------------------------------------------------------------ E13 *)

(* Partition tolerance of the committee TM (ROADMAP item): a 2|2 split of
   the f=1 committee removes the 3-replica quorum, so the TM can decide
   nothing — neither commit nor abort — until the partition heals. The
   sweep charts Def. 2 against partition onset × heal time: safety must
   hold in every cell; Bob's success degrades exactly where the outage
   window swallows the patience budget. *)
let e13_partition_sweep scale =
  let n_runs = runs scale in
  let hops = 2 in
  (* pid layout for 2 hops: customers 0-2, escrows 3-4, committee 5-8 *)
  let split ~at ~heal =
    let spec =
      match heal with
      | None -> Printf.sprintf "part 5,6|7,8@%d" at
      | Some d -> Printf.sprintf "part 5,6|7,8@%d+%d" at d
    in
    match Faults.Fault_plan.of_string spec with
    | Ok p -> p
    | Error e -> Fmt.invalid_arg "e13 plan %s: %s" spec e
  in
  let patience = 4_000 in
  let rows =
    List.concat_map
      (fun at ->
        List.map
          (fun (heal_label, heal) ->
            let paid = ref 0 and terminated = ref 0 and safe = ref 0 in
            for seed = 1 to n_runs do
              let gst_rng = Sim.Rng.create ~seed:(seed * 7919) in
              let gst = Sim.Rng.int_in gst_rng ~lo:0 ~hi:1_000 in
              let cfg =
                {
                  (Runner.default_config ~hops ~seed) with
                  network = Runner.Psync { gst };
                  fault_plan = Some (split ~at ~heal);
                }
              in
              let tm = Weak_protocol.Committee { f = 1 } in
              let o = Runner.run cfg (Runner.Weak (weak_cfg ~tm ~patience ())) in
              let v = PP.view o in
              if PP.bob_paid v then incr paid;
              if
                List.for_all
                  (fun pid -> Option.is_some (v.PP.terminated pid))
                  (Topology.customers o.Runner.env.Env.topo)
              then incr terminated;
              let report = PP.check v in
              (* an unhealed partition stops customers from terminating,
                 which fails the liveness verdicts (T, Lw) by design; the
                 safety column is everything else *)
              let safety =
                List.filter
                  (fun (p : V.t) ->
                    p.V.property <> "T" && p.V.property <> "Lw")
                  report
              in
              if V.all_hold safety then incr safe
            done;
            [
              Sim.Sim_time.to_string at;
              heal_label;
              Table.cell_i n_runs;
              Table.cell_pct (pct !paid n_runs);
              Table.cell_pct (pct !terminated n_runs);
              Table.cell_pct (pct !safe n_runs);
            ])
          [
            ("500", Some 500);
            ("2000", Some 2_000);
            ("8000", Some 8_000);
            ("never", None);
          ])
      [ 250; 1_000; 4_000 ]
  in
  Table.make
    ~title:
      "E13: committee TM partitioned (2|2 split at t, healed after d) — \
       Def. 2 under partition onset x heal time"
    ~header:
      [ "part@"; "heal after"; "runs"; "Bob paid"; "all terminated"; "safety" ]
    ~notes:
      [
        "patience 4000, GST uniform in [0, 1000]: a 2|2 split leaves no \
         3-replica quorum, so the TM decides nothing until the heal";
        "safety = Def.2 minus the liveness verdicts (T, Lw), which an \
         unhealed partition fails by design (customers wait on the TM \
         forever); it must show 100% in every cell";
        "success survives partitions that heal — even long after patience \
         expires, the healed TM resolves the pending abort — and is lost \
         only to an unhealed split; late partitions (t=4000) start after \
         the decision and change nothing";
      ]
    rows

(* ------------------------------------------------------------------ E14 *)

(* E13 generalized: the same unhealed-partition scenario over the whole
   quorum-system zoo. Whether the TM survives a split is pure quorum
   geometry — a block keeps deciding iff it contains a quorum of its
   family — so the same headcount split saves one family and kills
   another. Each row pins one (family, split) pair; the splits use the
   named multi-block grammar so the table is self-describing. *)
let e14_quorum_partitions scale =
  let n_runs = runs scale in
  let hops = 2 in
  (* pid layout for 2 hops: customers 0-2, escrows 3-4, committee 5.. *)
  let qs_majority4 = Quorum_system.majority ~n:4 ~f:1 () in
  let qs_majority7 = Quorum_system.majority ~n:7 ~f:2 () in
  let qs_weighted =
    Quorum_system.weighted ~weights:[| 2; 2; 1; 1; 1 |] ~f:1 ()
  in
  let qs_grid = Quorum_system.grid ~rows:3 ~cols:3 ~f:1 () in
  let cells =
    [
      (* a 2|2 split of the 4-committee strands both sides below q=3;
         3|1 leaves a live quorum *)
      ("majority(4,q=3)", qs_majority4, "part wing_a:5,6|wing_b:7,8@250");
      ("majority(4,q=3)", qs_majority4, "part main:5-7|lone:8@250");
      (* three-way split of the 7-committee: no block reaches q=5 *)
      ("majority(7,q=5)", qs_majority7, "part a:5,6,7|b:8,9|c:10,11@250");
      ("majority(7,q=5)", qs_majority7, "part main:5-9|rest:10,11@250");
      (* same 3|2 headcount, opposite fates: the block holding both
         heavyweights (replicas 0,1 = pids 5,6; weight 2 each) clears the
         threshold of 5, the one splitting them strands the system *)
      ("weighted(2,2,1,1,1)", qs_weighted, "part heavy:5-7|light:8,9@250");
      ("weighted(2,2,1,1,1)", qs_weighted, "part split:5,7,8|rest:6,9@250");
      (* a grid quorum is 2 full rows + 2 full columns: any row-aligned
         split breaks every column, so both sides die; losing a single
         replica only costs one row and one column, so 8|1 survives *)
      ("grid(3x3,2r+2c)", qs_grid, "part top:5-10|bottom:11-13@250");
      ("grid(3x3,2r+2c)", qs_grid, "part main:5-12|lone:13@250");
    ]
  in
  let patience = 4_000 in
  let rows =
    List.map
      (fun (family, qs, plan_spec) ->
        let plan =
          match Faults.Fault_plan.of_string plan_spec with
          | Ok p -> p
          | Error e -> Fmt.invalid_arg "e14 plan %s: %s" plan_spec e
        in
        let paid = ref 0 and terminated = ref 0 and safe = ref 0 in
        for seed = 1 to n_runs do
          let gst_rng = Sim.Rng.create ~seed:(seed * 7919) in
          let gst = Sim.Rng.int_in gst_rng ~lo:0 ~hi:1_000 in
          let cfg =
            {
              (Runner.default_config ~hops ~seed) with
              network = Runner.Psync { gst };
              fault_plan = Some plan;
            }
          in
          let tm = Weak_protocol.Quorum { qs } in
          let o = Runner.run cfg (Runner.Weak (weak_cfg ~tm ~patience ())) in
          let v = PP.view o in
          if PP.bob_paid v then incr paid;
          if
            List.for_all
              (fun pid -> Option.is_some (v.PP.terminated pid))
              (Topology.customers o.Runner.env.Env.topo)
          then incr terminated;
          let report = PP.check v in
          let safety =
            List.filter
              (fun (p : V.t) -> p.V.property <> "T" && p.V.property <> "Lw")
              report
          in
          if V.all_hold safety then incr safe
        done;
        let split =
          (* strip the "part " prefix and "@250" suffix: the groups are
             the interesting part, the schedule is fixed *)
          let s = plan_spec in
          String.sub s 5 (String.length s - 5 - 4)
        in
        [
          family;
          split;
          Table.cell_i n_runs;
          Table.cell_pct (pct !paid n_runs);
          Table.cell_pct (pct !terminated n_runs);
          Table.cell_pct (pct !safe n_runs);
        ])
      cells
  in
  Table.make
    ~title:
      "E14: generalized quorum systems under an unhealed partition at \
       t=250 — survival is quorum geometry, not headcount"
    ~header:[ "family"; "split"; "runs"; "Bob paid"; "all terminated"; "safety" ]
    ~notes:
      [
        "patience 4000, GST uniform in [0, 1000], partition never heals: \
         a block keeps deciding iff it contains a full quorum of its \
         family (count >= q, weight >= threshold, or 2 rows + 2 columns)";
        "weighted rows share a 3|2 headcount and differ only in where \
         the two weight-2 replicas sit — co-located they carry the \
         threshold, split apart no block can decide";
        "safety = Def.2 minus the liveness verdicts (T, Lw), as in E13; \
         it must show 100% in every cell";
      ]
    rows

let all ?domains scale =
  [
    e1_theorem1 scale;
    e2_impossibility scale;
    e3_weak_protocol scale;
    e4_patience_sweep scale;
    e5_scaling scale;
    e6_fault_matrix scale;
    e7_deals scale;
    e8_tm_committee scale;
    e9_drift scale;
    e10_embedding scale;
    e11_atomic_vs_weak scale;
    e12_exhaustive_corners ?domains scale;
    e13_partition_sweep scale;
    e14_quorum_partitions scale;
  ]

let names =
  [
    "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11"; "e12";
    "e13"; "e14";
  ]

let by_name = function
  | "e1" -> Some e1_theorem1
  | "e2" -> Some e2_impossibility
  | "e3" -> Some e3_weak_protocol
  | "e4" -> Some e4_patience_sweep
  | "e5" -> Some e5_scaling
  | "e6" -> Some e6_fault_matrix
  | "e7" -> Some e7_deals
  | "e8" -> Some e8_tm_committee
  | "e9" -> Some e9_drift
  | "e10" -> Some e10_embedding
  | "e11" -> Some e11_atomic_vs_weak
  | "e12" -> Some (fun scale -> e12_exhaustive_corners scale)
  | "e13" -> Some e13_partition_sweep
  | "e14" -> Some e14_quorum_partitions
  | _ -> None

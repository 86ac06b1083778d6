(* Tests for the protocol layer: topology, the timeout-parameter
   derivation (the Thm 1 fine-tuning), the run environment, the Figure 2
   automata, the HTLC baseline, the weak protocol, Byzantine strategies,
   and the runner. *)

open Protocols

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------ topology ------------------------------ *)

(* the customers strictly between Alice and Bob *)
let connectors t =
  List.filter
    (fun pid ->
      match Topology.role_of t pid with
      | Some (Topology.Connector _) -> true
      | _ -> false)
    (Topology.customers t)

let topology_tests =
  [
    Alcotest.test_case "pid layout" `Quick (fun () ->
        let t = Topology.create ~hops:3 in
        check Alcotest.int "alice" 0 (Topology.alice t);
        check Alcotest.int "bob" 3 (Topology.bob t);
        check Alcotest.int "c1" 1 (Topology.customer t 1);
        check Alcotest.int "e0" 4 (Topology.escrow t 0);
        check Alcotest.int "e2" 6 (Topology.escrow t 2);
        check Alcotest.int "aux" 7 (Topology.aux_base t);
        check Alcotest.int "count" 7 (Topology.payment_count t));
    Alcotest.test_case "role_of covers the payment pids" `Quick (fun () ->
        let t = Topology.create ~hops:2 in
        check Alcotest.bool "alice" true (Topology.role_of t 0 = Some Topology.Alice);
        check Alcotest.bool "chloe" true
          (Topology.role_of t 1 = Some (Topology.Connector 1));
        check Alcotest.bool "bob" true (Topology.role_of t 2 = Some Topology.Bob);
        check Alcotest.bool "e0" true (Topology.role_of t 3 = Some (Topology.Escrow 0));
        check Alcotest.bool "aux unknown" true (Topology.role_of t 5 = None);
        Topology.register_aux t 0;
        check Alcotest.bool "aux known" true (Topology.role_of t 5 = Some (Topology.Aux 0)));
    Alcotest.test_case "connectors list" `Quick (fun () ->
        check Alcotest.(list int) "hops 1" [] (connectors (Topology.create ~hops:1));
        check Alcotest.(list int) "hops 4" [ 1; 2; 3 ]
          (connectors (Topology.create ~hops:4)));
    Alcotest.test_case "customer/escrow adjacency" `Quick (fun () ->
        (* customer i pays into e_i and is paid from e_(i-1): Alice has no
           upstream escrow, Bob no downstream one. A faulty escrow voids
           the guarantees of exactly its two neighbours. *)
        let t = Topology.create ~hops:3 in
        let abiding faulty =
          let module PF = Props.Payment_fold in
          let j =
            {
              PF.facts = PF.create ~base:0 ~hops:3 ~nprocs:7;
              honest = (fun pid -> pid <> Topology.escrow t faulty);
              net = (fun _ -> 0);
              tm_trusted = true;
              well_formed = Ok ();
            }
          in
          List.map (PF.escrows_abide j) (Topology.customers t)
        in
        check Alcotest.(list bool) "e0 faulty" [ false; false; true; true ] (abiding 0);
        check Alcotest.(list bool) "e1 faulty" [ true; false; false; true ] (abiding 1);
        check Alcotest.(list bool) "e2 faulty" [ true; true; false; false ] (abiding 2));
    Alcotest.test_case "index inverses" `Quick (fun () ->
        let t = Topology.create ~hops:3 in
        check Alcotest.int "cust" 2 (Topology.customer_index t 2);
        check Alcotest.int "not a customer" (-1) (Topology.customer_index t 5);
        check Alcotest.(option int) "escrow" (Some 1) (Topology.escrow_index t 5);
        check Alcotest.(option int) "out of range" None (Topology.escrow_index t 99));
    Alcotest.test_case "needs at least one escrow" `Quick (fun () ->
        Alcotest.check_raises "hops 0"
          (Invalid_argument "Topology.create: need at least one escrow") (fun () ->
            ignore (Topology.create ~hops:0)));
  ]

(* ------------------------------- params ------------------------------- *)

let params_tests =
  [
    Alcotest.test_case "windows shrink toward Bob" `Quick (fun () ->
        let p = Params.derive (Params.default_input ~hops:4) in
        for i = 0 to 2 do
          check Alcotest.bool "a(i) > a(i+1)" true (p.Params.a.(i) > p.Params.a.(i + 1))
        done);
    Alcotest.test_case "derived parameters pass the recurrence check" `Quick
      (fun () ->
        List.iter
          (fun hops ->
            let p = Params.derive (Params.default_input ~hops) in
            check Alcotest.bool "check" true (Params.check p = Ok ()))
          [ 1; 2; 5; 16; 64 ]);
    Alcotest.test_case "shrunk windows fail the check" `Quick (fun () ->
        let p = Params.derive (Params.default_input ~hops:3) in
        let shrunk = Params.scale_windows p ~num:1 ~den:3 in
        check Alcotest.bool "fails" true (Result.is_error (Params.check shrunk)));
    Alcotest.test_case "d leaves room beyond a" `Quick (fun () ->
        let p = Params.derive (Params.default_input ~hops:3) in
        Array.iteri
          (fun i a -> check Alcotest.bool "d > a" true (p.Params.d.(i) > a))
          p.Params.a);
    Alcotest.test_case "zero drift means no inflation" `Quick (fun () ->
        let input = { (Params.default_input ~hops:2) with Params.drift_ppm = 0 } in
        let p = Params.derive input in
        let step = input.Params.delta + input.Params.sigma in
        check Alcotest.int "a1 exact" ((2 * step) + input.Params.margin)
          p.Params.a.(1));
    Alcotest.test_case "drift inflates windows" `Quick (fun () ->
        let base = Params.derive { (Params.default_input ~hops:3) with Params.drift_ppm = 0 } in
        let drifted =
          Params.derive { (Params.default_input ~hops:3) with Params.drift_ppm = 50_000 }
        in
        for i = 0 to 2 do
          check Alcotest.bool "bigger" true (drifted.Params.a.(i) > base.Params.a.(i))
        done);
    Alcotest.test_case "horizon dominates the largest window" `Quick (fun () ->
        let p = Params.derive (Params.default_input ~hops:5) in
        check Alcotest.bool "horizon" true (p.Params.horizon > p.Params.a.(0)));
    Alcotest.test_case "per-customer bounds are within the horizon" `Quick
      (fun () ->
        let p = Params.derive (Params.default_input ~hops:5) in
        check Alcotest.int "length" 6 (Array.length p.Params.customer_bound);
        Array.iter
          (fun b -> check Alcotest.bool "<= horizon" true (b <= p.Params.horizon))
          p.Params.customer_bound);
    Alcotest.test_case "Alice's bound is the tightest payer bound" `Quick
      (fun () ->
        let p = Params.derive (Params.default_input ~hops:4) in
        for i = 0 to 2 do
          check Alcotest.bool "increasing... or not: a_i shrinks downstream"
            true
            (p.Params.customer_bound.(i) > 0
            && p.Params.customer_bound.(i + 1) > 0)
        done);
    Alcotest.test_case "input validation" `Quick (fun () ->
        Alcotest.check_raises "hops" (Invalid_argument "Params: hops must be >= 1")
          (fun () -> ignore (Params.derive { (Params.default_input ~hops:1) with Params.hops = 0 }));
        Alcotest.check_raises "margin" (Invalid_argument "Params: margin must be >= 1")
          (fun () ->
            ignore (Params.derive { (Params.default_input ~hops:1) with Params.margin = 0 })));
    qcheck
      (QCheck.Test.make ~name:"up/down compose to at least identity"
         QCheck.(pair (int_range 1 1_000_000) (int_range 0 200_000))
         (fun (t, drift_ppm) ->
           (* dividing by (1-ρ), rounding up, as the windows' recurrence
              does *)
           Sim.Sim_time.scale (Params.up ~drift_ppm t) ~num:1_000_000
             ~den:(1_000_000 - drift_ppm)
           >= t));
    qcheck
      (QCheck.Test.make ~name:"derive always passes its own check" ~count:50
         QCheck.(
           triple (int_range 1 12) (int_range 1 500) (int_range 0 100_000))
         (fun (hops, delta, drift_ppm) ->
           let p =
             Params.derive
               { Params.hops; delta; sigma = delta / 4; drift_ppm; margin = 2 }
           in
           Params.check p = Ok ()));
  ]

(* --------------------------------- env --------------------------------- *)

let mk_env ?(hops = 3) ?(seed = 5) () =
  let topo = Topology.create ~hops in
  let params = Params.derive (Params.default_input ~hops) in
  Env.make ~topo ~params ~seed ()

let env_tests =
  [
    Alcotest.test_case "amounts decrease toward Bob by the commission" `Quick
      (fun () ->
        let env = mk_env () in
        check Alcotest.int "a0" 1020 (Env.amount_at env 0);
        check Alcotest.int "a1" 1010 (Env.amount_at env 1);
        check Alcotest.int "a2" 1000 (Env.amount_at env 2));
    Alcotest.test_case "books open with the needed balances" `Quick (fun () ->
        let env = mk_env () in
        let topo = env.Env.topo in
        check Alcotest.int "payer" 1010
          (Ledger.Book.balance env.Env.books.(1) (Topology.customer topo 1));
        check Alcotest.int "payee" 0
          (Ledger.Book.balance env.Env.books.(1) (Topology.customer topo 2)));
    Alcotest.test_case "genuine chi verifies, forged does not" `Quick (fun () ->
        let env = mk_env () in
        check Alcotest.bool "real" true (Env.chi_ok env (Env.make_chi env));
        let bob = Topology.bob env.Env.topo in
        let fake =
          Xcrypto.Auth.forge_value ~author:bob
            { Msg.x_payment = env.Env.payment; x_bob = bob }
        in
        check Alcotest.bool "forged" false (Env.chi_ok env fake));
    Alcotest.test_case "chi for another payment is rejected" `Quick (fun () ->
        let env = mk_env () in
        let bob = Topology.bob env.Env.topo in
        let signer = Env.signer_of env bob in
        let other =
          Xcrypto.Auth.sign_value signer ~put:Msg.ser_chi
            { Msg.x_payment = env.Env.payment + 1; x_bob = bob }
        in
        check Alcotest.bool "wrong payment" false (Env.chi_ok env other));
    Alcotest.test_case "chi signed by a non-Bob is rejected" `Quick (fun () ->
        let env = mk_env () in
        let bob = Topology.bob env.Env.topo in
        let chloe_signer = Env.signer_of env (Topology.customer env.Env.topo 1) in
        let bogus =
          Xcrypto.Auth.sign_value chloe_signer ~put:Msg.ser_chi
            { Msg.x_payment = env.Env.payment; x_bob = bob }
        in
        check Alcotest.bool "wrong signer" false (Env.chi_ok env bogus));
    Alcotest.test_case "promise verification binds the escrow" `Quick (fun () ->
        let env = mk_env () in
        let e0 = Topology.escrow env.Env.topo 0 in
        let signer = Env.signer_of env e0 in
        let g =
          Xcrypto.Auth.sign_value signer ~put:Msg.ser_promise_g
            { Msg.g_escrow = e0; g_customer = 0; d = 100 }
        in
        check Alcotest.bool "right escrow" true (Env.promise_g_ok env ~escrow_index:0 g);
        check Alcotest.bool "wrong escrow" false (Env.promise_g_ok env ~escrow_index:1 g));
    Alcotest.test_case "signer_of is idempotent" `Quick (fun () ->
        let env = mk_env () in
        let s1 = Env.signer_of env 0 and s2 = Env.signer_of env 0 in
        check Alcotest.int "same id" (Xcrypto.Auth.signer_id s1)
          (Xcrypto.Auth.signer_id s2));
  ]

(* ----------------------------- sync protocol --------------------------- *)

let run_sync ?(hops = 3) ?(seed = 1) ?(drift = 10_000) ?(faults = []) () =
  let cfg =
    { (Runner.default_config ~hops ~seed) with drift_ppm = drift; faults }
  in
  Runner.run cfg Runner.Sync_timebound

let outcome_of pid o =
  List.find_map
    (fun (p, tag, _) -> if p = pid then Some tag else None)
    (Runner.terminated_pids o)

let sync_tests =
  [
    Alcotest.test_case "all Figure 2 automata are well-formed (property C)"
      `Quick (fun () ->
        List.iter
          (fun hops ->
            let env = mk_env ~hops () in
            check Alcotest.bool "check_all" true
              (Anta.Network_check.well_formed
                 (Sync_protocol.template env.Env.params)
              = Ok ()))
          [ 1; 2; 3; 8 ]);
    Alcotest.test_case "happy path: money and certificate flow" `Quick (fun () ->
        let o = run_sync () in
        let env = o.Runner.env in
        let topo = env.Env.topo in
        check Alcotest.int "bob" 1000
          (Runner.balance o ~escrow:2 ~pid:(Topology.bob topo));
        check Alcotest.int "alice" 0
          (Runner.balance o ~escrow:0 ~pid:(Topology.alice topo));
        check Alcotest.int "chloe1 in" 1020 (Runner.balance o ~escrow:0 ~pid:1);
        check Alcotest.int "chloe1 out" 0 (Runner.balance o ~escrow:1 ~pid:1);
        check Alcotest.(option string) "alice outcome" (Some "certified")
          (outcome_of (Topology.alice topo) o);
        check Alcotest.(option string) "bob outcome" (Some "paid")
          (outcome_of (Topology.bob topo) o));
    Alcotest.test_case "single-hop payment works" `Quick (fun () ->
        let o = run_sync ~hops:1 () in
        check Alcotest.(option string) "bob" (Some "paid") (outcome_of 1 o));
    Alcotest.test_case "same seed reproduces the identical run" `Quick (fun () ->
        let o1 = run_sync ~seed:9 () and o2 = run_sync ~seed:9 () in
        check Alcotest.int "msgs" o1.Runner.message_count o2.Runner.message_count;
        check Alcotest.int "end" o1.Runner.end_time o2.Runner.end_time;
        check Alcotest.int "trace" (Sim.Trace.length o1.Runner.trace)
          (Sim.Trace.length o2.Runner.trace));
    Alcotest.test_case "message complexity is 6 per hop" `Quick (fun () ->
        List.iter
          (fun hops ->
            let o = run_sync ~hops () in
            check Alcotest.int "msgs" (6 * hops) o.Runner.message_count)
          [ 1; 2; 4 ]);
    Alcotest.test_case "mute Bob leads to universal refund" `Quick (fun () ->
        let topo = Topology.create ~hops:3 in
        let o = run_sync ~faults:[ (Topology.bob topo, Byzantine.Mute) ] () in
        check Alcotest.(option string) "alice refunded" (Some "refunded")
          (outcome_of (Topology.alice topo) o);
        check Alcotest.(option string) "chloe1 refunded" (Some "refunded")
          (outcome_of 1 o);
        Array.iteri
          (fun i book ->
            check Alcotest.int "payer restored" (Env.amount_at o.Runner.env i)
              (Ledger.Book.balance book (Topology.customer topo i)))
          o.Runner.env.Env.books);
    Alcotest.test_case "forged chi is never accepted by an escrow" `Quick
      (fun () ->
        let topo = Topology.create ~hops:3 in
        let o =
          run_sync
            ~faults:[ (Topology.customer topo 2, Byzantine.Forge_chi_connector) ]
            ()
        in
        let accepted_forgery =
          List.exists
            (fun (_, _, ob) ->
              match ob with
              | Obs.Cert_received { kind = Obs.Chi; valid = true; _ } -> true
              | _ -> false)
            (Runner.observations o)
        in
        check Alcotest.bool "no valid chi" false accepted_forgery);
    Alcotest.test_case "the memoised structural check equals a fresh one"
      `Quick (fun () ->
        List.iter
          (fun hops ->
            List.iter
              (fun drift_ppm ->
                let params =
                  Params.derive { (Params.default_input ~hops) with drift_ppm }
                in
                let fresh =
                  Anta.Network_check.well_formed (Sync_protocol.template params)
                in
                check
                  Alcotest.(result unit string)
                  (Printf.sprintf "hops %d drift %d" hops drift_ppm)
                  fresh
                  (Runner.well_formed Runner.Sync_timebound ~hops))
              [ (Params.default_input ~hops).Params.drift_ppm; 0 ])
          [ 1; 2; 3; 4; 5; 6 ]);
    Alcotest.test_case "a forged chi fails every guard and reaches no act"
      `Quick (fun () ->
        (* guard level: no receive transition of any participant takes it,
           while a genuine chi is taken (so the guards do inspect it) *)
        List.iter
          (fun hops ->
            let env = mk_env ~hops () in
            let topo = env.Env.topo in
            let forged =
              Msg.Chi
                (Xcrypto.Auth.forge_value ~author:(Topology.bob topo)
                   { Msg.x_payment = env.Env.payment; x_bob = Topology.bob topo })
            in
            let genuine = Msg.Chi (Env.make_chi env) in
            let takes = ref 0 in
            let tmpl = Sync_protocol.template env.Env.params in
            List.iter
              (fun pid ->
                let auto = tmpl.(pid) in
                List.iter
                  (fun st ->
                    match Anta.Automaton.node auto st with
                    | Some (Anta.Automaton.Input branches) ->
                        List.iter
                          (fun (b : (Env.t, Msg.t, Obs.t) Anta.Automaton.branch) ->
                            match b.guard with
                            | Anta.Automaton.Receive { accept; _ } ->
                                check Alcotest.bool
                                  (Printf.sprintf "pid %d state %s" pid st)
                                  false (accept env forged);
                                if accept env genuine then incr takes
                            | Anta.Automaton.Deadline _ | Anta.Automaton.At _ -> ())
                          branches
                    | _ -> ())
                  (Anta.Automaton.states auto))
              (Topology.customers topo @ Topology.escrows topo);
            (* every escrow, every connector and Alice take a genuine chi *)
            check Alcotest.int "genuine chi guards" (2 * hops) !takes)
          [ 1; 2; 3 ];
        (* run level: the forgery sent to e1 is never acted on, so nothing
           upstream of it records a received chi *)
        let topo = Topology.create ~hops:3 in
        let o =
          run_sync
            ~faults:[ (Topology.customer topo 2, Byzantine.Forge_chi_connector) ]
            ()
        in
        let upstream =
          [ Topology.escrow topo 1; Topology.customer topo 1; Topology.escrow topo 0;
            Topology.alice topo ]
        in
        List.iter
          (fun (pid, _, ob) ->
            match ob with
            | Obs.Cert_received { kind = Obs.Chi; _ } ->
                check Alcotest.bool
                  (Printf.sprintf "pid %d received a chi" pid)
                  false (List.mem pid upstream)
            | _ -> ())
          (Runner.observations o));
  ]

(* -------------------------------- htlc --------------------------------- *)

(* ------------------------- template and instances ------------------------ *)

(* Run one template for several instances in one engine: instance [inst]'s
   [procs] processes sit at pids [base + l] and run [handlers inst l], and
   every message takes its full delay, so a run's schedule does not depend
   on what else shares the engine. Returns each instance's trace slice —
   its sends, observations and armed timer labels — with pids shifted back
   by its base. *)
let run_instances ~procs handlers insts =
  let max_delay : Sim.Network.adversary =
   fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds -> Some bounds.Sim.Network.hi
  in
  let network =
    Sim.Network.create ~adversary:max_delay
      (Sim.Network.Synchronous { delta = 100 })
      (Sim.Rng.create ~seed:1)
  in
  let engine = Sim.Engine.create ~tag_of:Msg.tag ~network ~seed:1 () in
  List.iter
    (fun (base, inst) ->
      for l = 0 to procs - 1 do
        ignore
          (Sim.Engine.add_process engine ~pid:(base + l) ~base (handlers inst l))
      done)
    insts;
  ignore (Sim.Engine.run engine);
  let entries = Sim.Trace.to_list (Sim.Engine.trace engine) in
  List.map
    (fun (base, _) ->
      let mine p = p >= base && p < base + procs in
      List.filter_map
        (function
          | Sim.Trace.Sent { t; src; dst; msg; _ } when mine src ->
              Some
                (Fmt.str "%d send %d->%d %a" t (src - base) (dst - base) Msg.pp
                   msg)
          | Sim.Trace.Observed { t; pid; obs } when mine pid ->
              Some (Fmt.str "%d obs %d %a" t (pid - base) Obs.pp obs)
          | Sim.Trace.Timer_set { t; owner; label; _ } when mine owner ->
              Some (Fmt.str "%d timer %d %s" t (owner - base) label)
          | _ -> None)
        entries)
    insts

(* Two payments of one template, run interleaved in one engine, must each
   do exactly what they do alone, and each must pay Bob. *)
let shares_no_state ~hops ~procs handlers first second =
  let shared = run_instances ~procs handlers [ (0, first ()); (procs, second ()) ] in
  let alone mk = List.hd (run_instances ~procs handlers [ (0, mk ()) ]) in
  let standalone = [ alone first; alone second ] in
  List.iteri
    (fun k slice ->
      let paid =
        Fmt.str "obs %d %a" hops Obs.pp
          (Obs.Terminated { pid = hops; outcome = "paid" })
      in
      check Alcotest.bool
        (Printf.sprintf "instance %d pays Bob" k)
        true
        (List.exists
           (fun e ->
             let n = String.length paid and m = String.length e in
             m >= n && String.sub e (m - n) n = paid)
           slice))
    standalone;
  check Alcotest.bool "the two payments' slices differ" true
    (List.nth standalone 0 <> List.nth standalone 1);
  List.iteri
    (fun k (got, want) ->
      check Alcotest.(list string) (Printf.sprintf "instance %d" k) want got)
    (List.combine shared standalone)

let template_tests =
  let hops = 3 in
  let topo = Topology.create ~hops in
  let params = Params.derive (Params.default_input ~hops) in
  let procs = Topology.payment_count topo in
  (* two payments that differ in everything a payment owns: id, value,
     a routed (non-uniform) amount ladder, key seed, and books whose
     deposit ids are offset by an earlier, unrelated deposit *)
  let first () =
    Env.make ~topo ~params ~payment:11 ~value:1000
      ~amounts:[| 1037; 1010; 1000 |] ~seed:5 ()
  in
  let second () =
    let env =
      Env.make ~topo ~params ~payment:42 ~value:700
        ~amounts:[| 745; 745; 700 |] ~seed:99 ()
    in
    Array.iter
      (fun book ->
        Ledger.Book.open_account book ~owner:99 ~balance:3;
        ignore (Ledger.Book.deposit book ~from_:99 ~amount:3))
      env.Env.books;
    env
  in
  [
    Alcotest.test_case "a shared template carries no payment state" `Quick
      (fun () ->
        shares_no_state ~hops ~procs
          (Anta.Executor.instantiate (Sync_protocol.template params))
          first second);
    Alcotest.test_case "a shared HTLC template carries no payment state"
      `Quick (fun () ->
        (* the payments also differ in Bob's preimage, so in every lock *)
        shares_no_state ~hops ~procs
          (Anta.Executor.instantiate (Htlc_protocol.template params))
          (fun () -> Htlc_protocol.instance (first ()) ~seed:1)
          (fun () -> Htlc_protocol.instance (second ()) ~seed:2));
    Alcotest.test_case "a shared atomic template carries no payment state"
      `Quick (fun () ->
        shares_no_state ~hops ~procs:(procs + 1)
          (Anta.Executor.instantiate
             (Atomic_protocol.template ~hops Atomic_protocol.default_config))
          first second);
    Alcotest.test_case "runs share one compiled template per key" `Quick
      (fun () ->
        let cfg = Runner.default_config ~hops ~seed:3 in
        let p = Runner.derive_params cfg Runner.Sync_timebound in
        let tmpl = Runner.sync_template p in
        let o1 = Runner.run cfg Runner.Sync_timebound in
        let o2 = Runner.run cfg Runner.Sync_timebound in
        check Alcotest.bool "the runs left the template in place" true
          (Runner.sync_template p == tmpl);
        check Alcotest.string "equal runs, equal traces"
          (Runner.trace_jsonl o1.Runner.trace)
          (Runner.trace_jsonl o2.Runner.trace);
        check Alcotest.bool "Bob paid" true
          (List.exists
             (fun (pid, outcome, _) ->
               pid = Topology.bob topo && outcome = "paid")
             (Runner.terminated_pids o2));
        for pid = 0 to procs - 1 do
          check Alcotest.bool
            (Printf.sprintf "pid %d conforms" pid)
            true
            (o2.Runner.conformance pid = Some (Ok ()))
        done;
        let same what a b = check Alcotest.bool (what ^ ": shared") true (a == b)
        and apart what a b =
          check Alcotest.bool (what ^ ": apart") true (a != b)
        in
        apart "sync, drift-blind windows" tmpl
          (Runner.sync_template
             (Runner.derive_params cfg Runner.Naive_universal));
        apart "sync, scaled windows" tmpl
          (Runner.sync_template
             (Runner.derive_params
                { cfg with window_scale = Some (1, 2) }
                Runner.Sync_timebound));
        (* HTLC windows come from the timing input alone *)
        same "htlc, scaled windows"
          (Runner.htlc_template p)
          (Runner.htlc_template
             (Runner.derive_params
                { cfg with window_scale = Some (1, 2) }
                Runner.Htlc));
        apart "htlc, another delta" (Runner.htlc_template p)
          (Runner.htlc_template
             (Params.derive { (Params.default_input ~hops) with delta = 50 }));
        let deadline d = { Atomic_protocol.deadline = d } in
        same "atomic"
          (Runner.atomic_template ~hops (deadline 5_000))
          (Runner.atomic_template ~hops (deadline 5_000));
        apart "atomic, another deadline"
          (Runner.atomic_template ~hops (deadline 5_000))
          (Runner.atomic_template ~hops (deadline 6_000));
        let weak ?(patience = 5_000) tm =
          Runner.weak_template
            { Weak_protocol.default_config with tm; patience }
            ~hops
        in
        same "weak single" (weak Weak_protocol.Single) (weak Weak_protocol.Single);
        apart "weak, another patience" (weak Weak_protocol.Single)
          (weak ~patience:6_000 Weak_protocol.Single);
        same "weak, a DLS committee of four either way"
          (weak (Weak_protocol.Committee { f = 1 }))
          (weak
             (Weak_protocol.Quorum
                { qs = Quorum_system.majority ~n:4 ~f:1 () }));
        apart "weak, chain against committee"
          (weak (Weak_protocol.Chain { validators = 4 }))
          (weak (Weak_protocol.Committee { f = 1 }));
        let shared () =
          weak
            (Weak_protocol.Shared
               { pids = [| 100; 101; 102; 103 |]; verify = (fun _ -> true) })
        in
        apart "weak shared committee, built per call" (shared ()) (shared ()));
  ]

(* Every pid in [pids] ran its protocol's automaton, and the run's trace
   replays on it (trace conformance). *)
let conform_all o pids =
  List.iter
    (fun pid ->
      match o.Runner.conformance pid with
      | Some (Ok ()) -> ()
      | Some (Error d) ->
          Alcotest.failf "pid %d: in state %s: %s" pid
                  d.Anta.Conformance.state d.Anta.Conformance.reason
      | None -> Alcotest.failf "pid %d runs no automaton" pid)
    pids

(* C's structural clause holds for [tmpl hops], fresh and memoised *)
let well_formed_at protocol tmpl =
  List.iter
    (fun hops ->
      check
        Alcotest.(result unit string)
        (Printf.sprintf "hops %d" hops)
        (Ok ()) (tmpl hops);
      check
        Alcotest.(result unit string)
        (Printf.sprintf "memoised, hops %d" hops)
        (Ok ()) (Runner.well_formed protocol ~hops))
    [ 1; 2; 3; 4 ]

let htlc_tests =
  [
    Alcotest.test_case "every automaton is well-formed at hops 1-4" `Quick
      (fun () ->
        well_formed_at Runner.Htlc (fun hops ->
            Anta.Network_check.well_formed
              (Htlc_protocol.template
                 (Params.derive (Params.default_input ~hops)))));
    Alcotest.test_case "honest participants conform to their automata" `Quick
      (fun () ->
        let everyone hops = List.init ((2 * hops) + 1) Fun.id in
        conform_all (Runner.run (Runner.default_config ~hops:3 ~seed:2) Runner.Htlc)
          (everyone 3);
        (* every leg refunds at its timelock *)
        let topo = Topology.create ~hops:3 in
        let o =
          Runner.run
            {
              (Runner.default_config ~hops:3 ~seed:2) with
              faults = [ (Topology.bob topo, Byzantine.Mute) ];
            }
            Runner.Htlc
        in
        conform_all o (List.filter (( <> ) (Topology.bob topo)) (everyone 3));
        (* duplicated deliveries wait in the pool, in the run and the
           replay alike *)
        let plan =
          match Faults.Fault_plan.of_string "dup *>* 0.289" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        conform_all
          (Runner.run
             { (Runner.default_config ~hops:2 ~seed:9) with fault_plan = Some plan }
             Runner.Htlc)
          (everyone 2));
    Alcotest.test_case "happy path pays everyone" `Quick (fun () ->
        let cfg = Runner.default_config ~hops:3 ~seed:2 in
        let o = Runner.run cfg Runner.Htlc in
        check Alcotest.(option string) "bob" (Some "paid") (outcome_of 3 o);
        check Alcotest.(option string) "alice" (Some "preimage-receipt")
          (outcome_of 0 o);
        check Alcotest.int "bob money" 1000 (Runner.balance o ~escrow:2 ~pid:3));
    Alcotest.test_case "mute Bob: every leg refunds at its timelock" `Quick
      (fun () ->
        let topo = Topology.create ~hops:3 in
        let cfg =
          {
            (Runner.default_config ~hops:3 ~seed:2) with
            faults = [ (Topology.bob topo, Byzantine.Mute) ];
          }
        in
        let o = Runner.run cfg Runner.Htlc in
        Array.iteri
          (fun i book ->
            check Alcotest.int "restored" (Env.amount_at o.Runner.env i)
              (Ledger.Book.balance book (Topology.customer topo i)))
          o.Runner.env.Env.books);
    Alcotest.test_case "timelock ladder decreases toward Bob" `Quick (fun () ->
        let params = (mk_env ~hops:4 ()).Env.params in
        for i = 0 to 2 do
          check Alcotest.bool "monotone" true
            (Htlc_protocol.window_of params i
            > Htlc_protocol.window_of params (i + 1))
        done);
  ]

(* ----------------------------- weak protocol --------------------------- *)

let run_weak ?(hops = 3) ?(seed = 1) ?(gst = 0) ?(patience = 20_000)
    ?(tm = Weak_protocol.Single) ?(faults = []) () =
  let cfg =
    {
      (Runner.default_config ~hops ~seed) with
      network = (if gst = 0 then Runner.Sync else Runner.Psync { gst });
      faults;
    }
  in
  Runner.run cfg (Runner.Weak { Weak_protocol.default_config with patience; tm })

let weak_tests =
  [
    Alcotest.test_case "happy path commits and pays Bob" `Quick (fun () ->
        let o = run_weak () in
        check Alcotest.(option string) "bob" (Some "paid") (outcome_of 3 o);
        check Alcotest.(option string) "alice" (Some "certified") (outcome_of 0 o);
        check Alcotest.int "bob money" 1000 (Runner.balance o ~escrow:2 ~pid:3));
    Alcotest.test_case "zero patience aborts safely" `Quick (fun () ->
        let o = run_weak ~patience:0 () in
        check Alcotest.(option string) "alice refunded" (Some "refunded")
          (outcome_of 0 o);
        check Alcotest.int "bob unpaid" 0 (Runner.balance o ~escrow:2 ~pid:3);
        let decisions =
          List.filter_map
            (fun (_, _, ob) ->
              match ob with Obs.Decision_made { commit; _ } -> Some commit | _ -> None)
            (Runner.observations o)
        in
        check Alcotest.(list bool) "abort only" [ false ] decisions);
    Alcotest.test_case "committee matches the single TM on the happy path"
      `Quick (fun () ->
        let o = run_weak ~tm:(Weak_protocol.Committee { f = 1 }) () in
        check Alcotest.(option string) "bob" (Some "paid") (outcome_of 3 o));
    Alcotest.test_case "committee under partial synchrony still commits" `Quick
      (fun () ->
        let o =
          run_weak ~gst:1_500 ~patience:100_000
            ~tm:(Weak_protocol.Committee { f = 1 }) ()
        in
        check Alcotest.(option string) "bob" (Some "paid") (outcome_of 3 o));
    Alcotest.test_case "chain-hosted contract commits on the happy path"
      `Quick (fun () ->
        let o = run_weak ~tm:(Weak_protocol.Chain { validators = 4 }) () in
        check Alcotest.(option string) "bob" (Some "paid") (outcome_of 3 o);
        check Alcotest.(option string) "alice" (Some "certified") (outcome_of 0 o));
    Alcotest.test_case "chain-hosted contract aborts on impatience" `Quick
      (fun () ->
        let o =
          run_weak ~patience:0 ~tm:(Weak_protocol.Chain { validators = 4 }) ()
        in
        check Alcotest.int "bob unpaid" 0 (Runner.balance o ~escrow:2 ~pid:3);
        (* every validator announces the same abort *)
        let decisions =
          List.filter_map
            (fun (_, _, ob) ->
              match ob with Obs.Decision_made { commit; _ } -> Some commit | _ -> None)
            (Runner.observations o)
        in
        check Alcotest.bool "all abort" true
          (decisions <> [] && List.for_all (fun c -> not c) decisions));
    Alcotest.test_case "chain-hosted contract under partial synchrony" `Quick
      (fun () ->
        for seed = 1 to 8 do
          let o =
            run_weak ~seed ~gst:1_500 ~patience:100_000
              ~tm:(Weak_protocol.Chain { validators = 3 }) ()
          in
          let v = Props.Payment_props.view o in
          check Alcotest.bool "def2" true
            (Props.Verdict.all_hold
               (Props.Payment_props.check_def2 ~patience_sufficient:true v));
          check Alcotest.bool "paid" true (Props.Payment_props.bob_paid v)
        done);
    Alcotest.test_case "chain validators agree on the decision across seeds"
      `Quick (fun () ->
        for seed = 1 to 10 do
          (* race aborts against commits on the chain *)
          let o =
            run_weak ~seed ~patience:150
              ~tm:(Weak_protocol.Chain { validators = 4 }) ()
          in
          let decisions =
            List.filter_map
              (fun (_, _, ob) ->
                match ob with
                | Obs.Decision_made { commit; _ } -> Some commit
                | _ -> None)
              (Runner.observations o)
          in
          match decisions with
          | [] -> Alcotest.fail "no decision"
          | d :: rest ->
              check Alcotest.bool "agreement" true (List.for_all (Bool.equal d) rest)
        done);
    Alcotest.test_case "never-depositing Chloe forces a refund, not a theft"
      `Quick (fun () ->
        let o =
          run_weak ~patience:2_000 ~faults:[ (1, Byzantine.Never_deposit) ] ()
        in
        check Alcotest.int "alice restored" 1020 (Runner.balance o ~escrow:0 ~pid:0);
        check Alcotest.int "bob unpaid" 0 (Runner.balance o ~escrow:2 ~pid:3));
    Alcotest.test_case
      "false-funded escrow cannot corrupt honest books" `Quick (fun () ->
        let topo = Topology.create ~hops:3 in
        let o =
          run_weak ~faults:[ (Topology.escrow topo 1, Byzantine.False_funded_escrow) ] ()
        in
        Array.iter
          (fun book ->
            check Alcotest.bool "audit" true (Result.is_ok (Ledger.Book.audit book)))
          o.Runner.env.Env.books);
    Alcotest.test_case "tm_pids layout" `Quick (fun () ->
        let env = mk_env ~hops:2 () in
        let single = Weak_protocol.tm_pids env.Env.topo Weak_protocol.default_config in
        check Alcotest.(array int) "single" [| 5 |] single;
        let committee =
          Weak_protocol.tm_pids env.Env.topo
            { Weak_protocol.default_config with tm = Weak_protocol.Committee { f = 1 } }
        in
        check Alcotest.(array int) "committee" [| 5; 6; 7; 8 |] committee);
    Alcotest.test_case "every TM kind's network is well-formed at hops 1-6"
      `Quick (fun () ->
        let shared =
          Weak_protocol.Shared
            { pids = [| 100; 101; 102; 103 |]; verify = (fun _ -> false) }
        in
        List.iter
          (fun (tm, patience) ->
            let wcfg = { Weak_protocol.default_config with tm; patience } in
            List.iter
              (fun hops ->
                let name =
                  Printf.sprintf "%s, hops %d"
                    (Runner.protocol_name (Runner.Weak wcfg))
                    hops
                in
                let fresh = Weak_protocol.well_formed wcfg ~hops in
                check Alcotest.(result unit string) name (Ok ()) fresh;
                check
                  Alcotest.(result unit string)
                  (name ^ ", memoised") fresh
                  (Runner.well_formed (Runner.Weak wcfg) ~hops))
              [ 1; 2; 3; 4; 5; 6 ])
          [
            (Weak_protocol.Single, 5_000);
            (Weak_protocol.Single, Sim.Sim_time.infinity);
            (Weak_protocol.Committee { f = 1 }, 5_000);
            ( Weak_protocol.Quorum
                { qs = Quorum_system.weighted ~weights:[| 2; 2; 1; 1; 1 |] ~f:1 () },
              5_000 );
            (Weak_protocol.Chain { validators = 4 }, 5_000);
            (shared, 5_000);
          ]);
    Alcotest.test_case "an escrow deaf to the TM fails C" `Quick (fun () ->
        (* e0 (pid 3 at hops 2) takes its decision from Alice instead of
           the TM at pid 5, which announces to it *)
        let tmpl = Weak_protocol.template Weak_protocol.default_config ~hops:2 in
        let any _ _ = true in
        tmpl.(3) <-
          Anta.Automaton.make ~name:"escrow0" ~initial:"await_money"
            ~nodes:
              [
                ( "await_money",
                  Anta.Automaton.input
                    [ Env.recv 0 "$" any "report" ] );
                ( "report",
                  Anta.Automaton.output ~to_:5
                    ~message:(fun _ _ _ -> Msg.Start)
                    ~next:"await_decision" () );
                ( "await_decision",
                  Anta.Automaton.input [ Env.recv 0 "χ" any "release" ] );
                ( "release",
                  Anta.Automaton.output ~to_:1
                    ~message:(fun _ _ _ -> Msg.Start)
                    ~next:"done" () );
                ("done", Anta.Automaton.final ());
              ]
            ();
        check
          Alcotest.(result unit string)
          "miswired"
          (Error
             "network wiring: pid 5 sends to pid 3, but 3 has no receive \
              transition for messages from 5")
          (Anta.Network_check.well_formed tmpl));
    Alcotest.test_case "fault-free participants conform to their automata"
      `Quick (fun () ->
        let payment hops = List.init ((2 * hops) + 1) Fun.id in
        List.iter
          (fun seed ->
            (* committed, and aborted at once *)
            List.iter
              (fun patience ->
                conform_all
                  (run_weak ~hops:3 ~seed ~patience ())
                  (payment 3 @ [ 7 ]))
              [ 20_000; 0 ];
            List.iter
              (fun tm ->
                let o = run_weak ~hops:3 ~seed ~patience:150 ~tm () in
                conform_all o (payment 3);
                check Alcotest.bool "replicas run no automaton" true
                  (o.Runner.conformance 7 = None))
              [
                Weak_protocol.Committee { f = 1 };
                Weak_protocol.Chain { validators = 4 };
              ])
          [ 1; 2; 3 ]);
  ]

(* -------------------- weak protocol race conditions -------------------- *)

let decisions_of o =
  List.filter_map
    (fun (_, _, ob) ->
      match ob with Obs.Decision_made { commit; _ } -> Some commit | _ -> None)
    (Runner.observations o)

let weak_race_tests =
  [
    Alcotest.test_case "abort racing commit: exactly one decision wins"
      `Quick (fun () ->
        (* patience in the same ballpark as the funded-collection time, so
           across seeds both orders occur; the single TM must still decide
           exactly once and every run must stay safe *)
        let commits = ref 0 and aborts = ref 0 in
        for seed = 1 to 40 do
          let o = run_weak ~hops:3 ~seed ~patience:150 () in
          let ds = decisions_of o in
          check Alcotest.int "one decision" 1 (List.length ds);
          if List.hd ds then incr commits else incr aborts;
          let v = Props.Payment_props.view o in
          check Alcotest.bool "safe" true
            (Props.Verdict.all_hold
               (Props.Payment_props.check_def2 ~patience_sufficient:false v))
        done;
        check Alcotest.bool "both orders occurred" true
          (!commits > 0 && !aborts > 0));
    Alcotest.test_case "a late deposit after the abort is refunded" `Quick
      (fun () ->
        (* Chloe1 aborts immediately; Alice's deposit races the decision.
           Whatever the interleaving, her money must come back. *)
        for seed = 1 to 15 do
          let o =
            run_weak ~hops:2 ~seed
              ~faults:[ (1, Byzantine.Impatient 0) ]
              ~patience:50_000 ()
          in
          check Alcotest.int "alice restored"
            (Env.amount_at o.Runner.env 0)
            (Runner.balance o ~escrow:0 ~pid:0)
        done);
    Alcotest.test_case "several simultaneous aborts yield one decision"
      `Quick (fun () ->
        let o = run_weak ~hops:3 ~seed:5 ~patience:0 () in
        check Alcotest.int "one decision" 1 (List.length (decisions_of o));
        check Alcotest.(list bool) "it is an abort" [ false ] (decisions_of o));
    Alcotest.test_case "infinite patience never aborts" `Quick (fun () ->
        let o = run_weak ~hops:2 ~seed:3 ~patience:Sim.Sim_time.infinity () in
        check Alcotest.(list bool) "commit" [ true ] (decisions_of o);
        let aborts =
          List.exists
            (fun (_, _, ob) ->
              match ob with Obs.Abort_requested _ -> true | _ -> false)
            (Runner.observations o)
        in
        check Alcotest.bool "no abort requests" false aborts);
    Alcotest.test_case "committee: abort racing commit stays consistent"
      `Quick (fun () ->
        for seed = 1 to 15 do
          let o =
            run_weak ~hops:2 ~seed ~patience:280
              ~tm:(Weak_protocol.Committee { f = 1 }) ()
          in
          let v = Props.Payment_props.view o in
          check Alcotest.bool "CC" true
            (Props.Verdict.holds
               (Props.Payment_props.check_def2 ~patience_sufficient:false v)
               "CC")
        done);
  ]

(* ------------------------- weak behaviour pin -------------------------- *)

(* A weak run as everything but its timer entries: each send, delivery,
   observation, halt, crash and recovery with its time, ends and payload,
   then the Definition-2 verdicts. Timer entries are left out, with the
   trace seqs that count them: how a participant arms its deadlines is its
   own business, what it does when they fire is not. *)
let weak_behaviour o =
  let msg m = Fmt.str "%a" Msg.pp m and obs b = Fmt.str "%a" Obs.pp b in
  let entry = function
    | Sim.Trace.Sent { t; src; dst; msg = m; _ } ->
        Some (Printf.sprintf "%d sent %d>%d %s" t src dst (msg m))
    | Sim.Trace.Delivered { t; sent_at; src; dst; msg = m; _ } ->
        Some (Printf.sprintf "%d delivered %d>%d %d %s" t src dst sent_at (msg m))
    | Sim.Trace.Observed { t; pid; obs = b } ->
        Some (Printf.sprintf "%d observed %d %s" t pid (obs b))
    | Sim.Trace.Halted { t; pid } -> Some (Printf.sprintf "%d halted %d" t pid)
    | Sim.Trace.Crashed { t; pid; _ } -> Some (Printf.sprintf "%d crashed %d" t pid)
    | Sim.Trace.Recovered { t; pid } ->
        Some (Printf.sprintf "%d recovered %d" t pid)
    | Sim.Trace.Timer_set _ | Sim.Trace.Timer_fired _ -> None
  in
  let v = Props.Payment_props.view o in
  String.concat "\n"
    (List.filter_map entry (Sim.Trace.to_list o.Runner.trace)
    @ [
        Fmt.str "%a" Props.Verdict.pp_report
          (Props.Payment_props.check_def2 ~patience_sufficient:true v);
      ])

let pin_kinds =
  [
    ("single", Weak_protocol.Single);
    ("committee", Weak_protocol.Committee { f = 1 });
    ( "weighted",
      Weak_protocol.Quorum
        { qs = Quorum_system.weighted ~weights:[| 2; 2; 1; 1; 1 |] ~f:1 () } );
    ("chain", Weak_protocol.Chain { validators = 4 });
  ]

(* pid 1 is Chloe1 and pid 5 is e1 at hops 3; a TM fault hits replica 0,
   the round-0 leader of a committee. Equivocation needs a committee. The
   outage holds Chloe1's deposit and patience deadlines to her reboot. *)
let pin_faults tm =
  let committee =
    match tm with
    | Weak_protocol.Committee _ | Weak_protocol.Quorum _ -> true
    | Weak_protocol.Single | Weak_protocol.Chain _ | Weak_protocol.Shared _ ->
        false
  in
  let byz f = Some ([ f ], [||], None) in
  let notary fault =
    if committee then Some ([], [| fault |], None)
    else if fault = Weak_protocol.Notary_crash then
      byz (7, Byzantine.Crash_at_start)
    else None
  in
  let plan s = Result.get_ok (Faults.Fault_plan.of_string s) in
  List.filter_map
    (fun (name, f) -> Option.map (fun f -> (name, f)) f)
    [
      ("none", Some ([], [||], None));
      ("impatient", byz (1, Byzantine.Impatient 120));
      ("false-funded-escrow", byz (5, Byzantine.False_funded_escrow));
      ("never-deposit", byz (1, Byzantine.Never_deposit));
      ("notary-crash", notary Weak_protocol.Notary_crash);
      ("notary-equivocate", notary Weak_protocol.Notary_equivocate);
      ("crash-recovery", Some ([], [||], Some (plan "crash 1@5+400")));
    ]

let pin_run tm (faults, notary_faults, fault_plan) ~seed ~patience =
  Runner.run
    { (Runner.default_config ~hops:3 ~seed) with faults; fault_plan }
    (Runner.Weak
       { Weak_protocol.default_config with tm; patience; notary_faults })

(* every (kind, fault) over seeds 1-3, at a patience that outlasts the
   TM and at one that races it *)
let pin_digest tm fault =
  Digest.to_hex
    (Digest.string
       (String.concat "\n--\n"
          (List.concat_map
             (fun seed ->
               List.map
                 (fun patience ->
                   weak_behaviour (pin_run tm fault ~seed ~patience))
                 [ 5_000; 150 ])
             [ 1; 2; 3 ])))

(* The single TM terminates once its decision is out: its runs record its
   Terminated observation and its Halted entry. A never-depositing customer
   is her honest automaton without its deposit branch, so she still asks
   the TM to abort when her patience runs out. *)
let weak_pins =
  [
    ("single", "none", "cefeecddc30317017d722bc061f091c2");
    ("single", "impatient", "3856c39d26c95382f4c8cca2a90ee850");
    ("single", "false-funded-escrow", "f2633d0f3cc9f3187c67c8cf3d8b5fc3");
    ("single", "never-deposit", "296630f5c8cf7fb725d1aa46c5d24252");
    ("single", "notary-crash", "6dc3078fda789d1533bc7168152ad35f");
    ("single", "crash-recovery", "7b8185d568aa7b7ef736d473f0b8e9af");
    ("committee", "none", "f72a380a7928e76ff155b00ec28f8d50");
    ("committee", "impatient", "06889951eb21f6dcc942e5f06638dd85");
    ("committee", "false-funded-escrow", "0665f025c3a643d4788694363cab316e");
    ("committee", "never-deposit", "c38bc697c8a5b6328b419a8fdfe929fe");
    ("committee", "notary-crash", "d8308668968f717ccede216142cb8220");
    ("committee", "notary-equivocate", "d28583a6e4879a5b4023293ce590e165");
    ("committee", "crash-recovery", "8b8e6601d86d5e73b9e7a9a354910c02");
    ("weighted", "none", "5e683f5bd42b6b83321a807bbd3c146c");
    ("weighted", "impatient", "f8a229674db9bd8d412a22a6f7d6f549");
    ("weighted", "false-funded-escrow", "f3c1060c2e0e5fff22007705d3a840cb");
    ("weighted", "never-deposit", "7fb80ff935a92dd1f6cb9c018b9caf99");
    ("weighted", "notary-crash", "8a481d76eee7784c9a7bb32c5fd032a9");
    ("weighted", "notary-equivocate", "7f99825f94b0630c9f973985d605382f");
    ("weighted", "crash-recovery", "f3c2c8069436df1f3c863ee903da3572");
    ("chain", "none", "67dac916168fffc86253d8ee9989f49c");
    ("chain", "impatient", "0fa42c04b18dbc35e83ab2fd4fc75fe0");
    ("chain", "false-funded-escrow", "1ff7fec00faeb72de1d5e76bc07522bc");
    ("chain", "never-deposit", "e1e0f9e74624ba95e5fb6305a2d6b844");
    ("chain", "notary-crash", "c176a7feeb224d65d37e8bf40ef6bad1");
    ("chain", "crash-recovery", "91a70a55b9b8bfd8021048112a09cacc");
  ]

let weak_pin_tests =
  [
    Alcotest.test_case "trace and verdicts, timers aside, per TM kind and fault"
      `Slow (fun () ->
        let got =
          List.concat_map
            (fun (kname, tm) ->
              List.map
                (fun (fname, fault) -> (kname, fname, pin_digest tm fault))
                (pin_faults tm))
            pin_kinds
        in
        check
          Alcotest.(list (triple string string string))
          "digests" weak_pins got);
  ]

(* ---------------------------- atomic (ILP) ----------------------------- *)

let run_atomic ?(hops = 3) ?(seed = 1) ?(gst = 0) ?(deadline = 5_000) () =
  let cfg =
    {
      (Runner.default_config ~hops ~seed) with
      network = (if gst = 0 then Runner.Sync else Runner.Psync { gst });
    }
  in
  Runner.run cfg (Runner.Atomic { Atomic_protocol.deadline })

let atomic_tests =
  [
    Alcotest.test_case "every automaton is well-formed at hops 1-4" `Quick
      (fun () ->
        well_formed_at (Runner.Atomic Atomic_protocol.default_config)
          (fun hops ->
            Anta.Network_check.well_formed
              (Atomic_protocol.template ~hops Atomic_protocol.default_config)));
    Alcotest.test_case "every participant and the notary conform" `Quick
      (fun () ->
        (* committed, aborted at once, and aborted by a late GST *)
        List.iter
          (fun o -> conform_all o (List.init 8 Fun.id))
          [ run_atomic (); run_atomic ~deadline:3 ();
            run_atomic ~gst:20_000 ~deadline:2_000 ~seed:5 () ]);
    Alcotest.test_case "happy path executes and pays Bob" `Quick (fun () ->
        let o = run_atomic () in
        check Alcotest.(option string) "bob" (Some "paid") (outcome_of 3 o);
        check Alcotest.(option string) "alice" (Some "certified") (outcome_of 0 o);
        check Alcotest.int "bob money" 1000 (Runner.balance o ~escrow:2 ~pid:3));
    Alcotest.test_case "a short deadline aborts the payment safely" `Quick
      (fun () ->
        let o = run_atomic ~deadline:3 () in
        check Alcotest.int "bob unpaid" 0 (Runner.balance o ~escrow:2 ~pid:3);
        (* every deposit that was made got refunded *)
        Array.iteri
          (fun i book ->
            check Alcotest.int "restored" (Env.amount_at o.Runner.env i)
              (Ledger.Book.balance book (Topology.customer o.Runner.env.Env.topo i)))
          o.Runner.env.Env.books);
    Alcotest.test_case "the notary decides exactly once" `Quick (fun () ->
        let o = run_atomic ~gst:2_000 ~deadline:1_000 () in
        let decisions =
          List.filter
            (fun (_, _, ob) ->
              match ob with Obs.Decision_made _ -> true | _ -> false)
            (Runner.observations o)
        in
        check Alcotest.int "one decision" 1 (List.length decisions));
    Alcotest.test_case "GST past the deadline kills success, never safety"
      `Quick (fun () ->
        let o = run_atomic ~gst:20_000 ~deadline:2_000 ~seed:5 () in
        let v = Props.Payment_props.view o in
        check Alcotest.bool "unpaid" false (Props.Payment_props.bob_paid v);
        check Alcotest.bool "conserved" true (Props.Payment_props.money_conserved v);
        check Alcotest.bool "def2 safety" true
          (Props.Verdict.all_hold
             (Props.Payment_props.check_def2 ~patience_sufficient:false v)));
    qcheck
      (QCheck.Test.make ~name:"atomic runs satisfy Def.2 safety on any seed"
         ~count:25 QCheck.small_int
         (fun seed ->
           let o = run_atomic ~hops:2 ~seed ~gst:(seed mod 7 * 1000) () in
           let v = Props.Payment_props.view o in
           Props.Verdict.all_hold
             (Props.Payment_props.check_def2 ~patience_sufficient:false v)
           && Props.Payment_props.money_conserved v));
  ]

(* ------------------------------ byzantine ------------------------------ *)

(* whether [Byzantine.deviate] edits the protocol's template at the pid:
   the applicability the --fault grammar must agree with *)
let fits (env : Env.t) tmpl pid t =
  match Byzantine.deviate env tmpl [ (pid, t) ] with
  | _ -> true
  | exception Invalid_argument _ -> false

let weak_template hops = Weak_protocol.template Weak_protocol.default_config ~hops

(* the fit of a strategy at a pid, under sync and under weak *)
let sync_fits env pid t = fits env (Sync_protocol.template env.Env.params) pid t

let weak_fits env pid t =
  fits env (weak_template (Topology.hops env.Env.topo)) pid t

let byzantine_tests =
  [
    Alcotest.test_case "applicability matrix" `Quick (fun () ->
        let open Byzantine in
        let env = mk_env () in
        let topo = env.Env.topo in
        let sync t pid = sync_fits env pid t and weak t pid = weak_fits env pid t in
        check Alcotest.bool "thief on escrow" true
          (sync Thief_escrow (Topology.escrow topo 0));
        check Alcotest.bool "thief on alice" false
          (sync Thief_escrow (Topology.alice topo));
        check Alcotest.bool "withhold on bob" true
          (sync Withhold_chi_bob (Topology.bob topo));
        check Alcotest.bool "withhold on chloe" false
          (sync Withhold_chi_bob (Topology.customer topo 1));
        check Alcotest.bool "crash anywhere" true
          (sync Crash_at_start (Topology.escrow topo 2));
        check Alcotest.bool "thief on a weak escrow" true
          (weak Thief_escrow (Topology.escrow topo 1));
        check Alcotest.bool "no-resolve on a weak escrow" false
          (weak No_resolve_escrow (Topology.escrow topo 1));
        check Alcotest.bool "never-deposit on a weak payer" true
          (weak Never_deposit (Topology.customer topo 1));
        check Alcotest.bool "never-deposit on weak bob, who pays nothing" false
          (weak Never_deposit (Topology.bob topo));
        check Alcotest.bool "never-deposit on a sync payer" false
          (sync Never_deposit (Topology.alice topo));
        check Alcotest.bool "impatient on weak bob" true
          (weak (Impatient 5) (Topology.bob topo));
        check Alcotest.bool "impatient on a sync customer" false
          (sync (Impatient 5) (Topology.alice topo));
        check Alcotest.bool "false-funded on a sync escrow" false
          (sync False_funded_escrow (Topology.escrow topo 0)));
    Alcotest.test_case "inapplicable strategy raises" `Quick (fun () ->
        Alcotest.check_raises "bad"
          (Invalid_argument "Byzantine.deviate: thief-escrow does not fit alice")
          (fun () -> ignore (run_sync ~faults:[ (0, Byzantine.Thief_escrow) ] ())));
    Alcotest.test_case "thief escrow really takes the money" `Quick (fun () ->
        let topo = Topology.create ~hops:2 in
        let e0 = Topology.escrow topo 0 in
        let o = run_sync ~hops:2 ~faults:[ (e0, Byzantine.Thief_escrow) ] () in
        check Alcotest.int "stolen" (Env.amount_at o.Runner.env 0)
          (Runner.balance o ~escrow:0 ~pid:e0);
        check Alcotest.bool "audit still passes" true
          (Result.is_ok (Ledger.Book.audit o.Runner.env.Env.books.(0))));
    Alcotest.test_case "names are stable" `Quick (fun () ->
        check Alcotest.string "thief" "thief-escrow" (Byzantine.name Byzantine.Thief_escrow);
        check Alcotest.string "impatient" "impatient-5"
          (Byzantine.name (Byzantine.Impatient 5)));
  ]

(* -------------------------------- runner ------------------------------- *)

let runner_tests =
  [
    Alcotest.test_case "naive params are drift-blind" `Quick (fun () ->
        let cfg = Runner.default_config ~hops:3 ~seed:1 in
        let tuned = Runner.derive_params cfg Runner.Sync_timebound in
        let naive = Runner.derive_params cfg Runner.Naive_universal in
        check Alcotest.bool "tuned wider" true (tuned.Params.a.(0) > naive.Params.a.(0)));
    Alcotest.test_case "window_scale applies" `Quick (fun () ->
        let cfg =
          { (Runner.default_config ~hops:2 ~seed:1) with window_scale = Some (3, 1) }
        in
        let scaled = Runner.derive_params cfg Runner.Sync_timebound in
        let base =
          Runner.derive_params { cfg with Runner.window_scale = None }
            Runner.Sync_timebound
        in
        check Alcotest.int "tripled" (3 * base.Params.a.(0)) scaled.Params.a.(0));
    Alcotest.test_case "fault names are recorded" `Quick (fun () ->
        let o = run_sync ~faults:[ (3, Byzantine.Mute) ] () in
        check Alcotest.(list (pair int string)) "names" [ (3, "mute") ]
          o.Runner.fault_names);
    Alcotest.test_case "protocol names" `Quick (fun () ->
        check Alcotest.string "sync" "sync-timebound"
          (Runner.protocol_name Runner.Sync_timebound);
        check Alcotest.string "weak" "weak-single-tm"
          (Runner.protocol_name (Runner.Weak Weak_protocol.default_config)));
    qcheck
      (QCheck.Test.make ~name:"sync protocol satisfies Def.1 on random seeds"
         ~count:40 QCheck.small_int
         (fun seed ->
           let o = run_sync ~hops:2 ~seed () in
           let v = Props.Payment_props.view o in
           Props.Verdict.all_hold
             (Props.Payment_props.check_def1 ~time_bounded:true v)));
    qcheck
      (QCheck.Test.make ~name:"weak protocol satisfies Def.2 on random seeds"
         ~count:25 QCheck.small_int
         (fun seed ->
           let o = run_weak ~hops:2 ~seed () in
           let v = Props.Payment_props.view o in
           Props.Verdict.all_hold
             (Props.Payment_props.check_def2 ~patience_sufficient:true v)));
    qcheck
      (QCheck.Test.make
         ~name:"safety survives a random single Byzantine participant"
         ~count:40
         QCheck.(pair small_int (int_bound 100))
         (fun (seed, pick) ->
           let topo = Topology.create ~hops:3 in
           let candidates =
             [
               (Topology.alice topo, Byzantine.Crash_at_start);
               (Topology.customer topo 1, Byzantine.Mute);
               (Topology.customer topo 2, Byzantine.Forge_chi_connector);
               (Topology.bob topo, Byzantine.Withhold_chi_bob);
               (Topology.bob topo, Byzantine.Eager_chi_bob);
               (Topology.escrow topo 0, Byzantine.Thief_escrow);
               (Topology.escrow topo 1, Byzantine.Premature_refund_escrow);
               (Topology.escrow topo 2, Byzantine.No_resolve_escrow);
             ]
           in
           let fault = List.nth candidates (pick mod List.length candidates) in
           let o = run_sync ~hops:3 ~seed ~faults:[ fault ] () in
           let v = Props.Payment_props.view o in
           Props.Verdict.all_hold
             (Props.Payment_props.check_def1 ~time_bounded:false v)));
  ]

let window_robustness_tests =
  let max_delay : Sim.Network.adversary =
   fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds -> Some bounds.Sim.Network.hi
  in
  let safety_only v =
    (* the safety fragment of Def.1: everything except progress *)
    let r = Props.Payment_props.check_def1 ~time_bounded:false v in
    List.for_all
      (fun name -> Props.Verdict.holds r name)
      [ "ES"; "CS1"; "CS2"; "CS3" ]
  in
  [
    qcheck
      (QCheck.Test.make
         ~name:"shrunken windows can only lose progress, never safety"
         ~count:50
         QCheck.(pair small_int (int_range 1 3))
         (fun (seed, denom) ->
           let cfg =
             {
               (Runner.default_config ~hops:3 ~seed) with
               window_scale = Some (1, denom + 1);
               adversary = Some max_delay;
             }
           in
           let o = Runner.run cfg Runner.Sync_timebound in
           safety_only (Props.Payment_props.view o)));
    Alcotest.test_case "shrunken windows do lose liveness" `Quick (fun () ->
        (* with windows cut to a quarter and worst-case delays, at least one
           seed must fail to pay Bob — the windows were tight by design *)
        let lost = ref false in
        for seed = 1 to 20 do
          let cfg =
            {
              (Runner.default_config ~hops:3 ~seed) with
              window_scale = Some (1, 4);
              adversary = Some max_delay;
            }
          in
          let o = Runner.run cfg Runner.Sync_timebound in
          if not (Props.Payment_props.bob_paid (Props.Payment_props.view o))
          then lost := true
        done;
        check Alcotest.bool "some liveness loss" true !lost);
    qcheck
      (QCheck.Test.make
         ~name:"full asynchrony: the weak protocol stays safe" ~count:25
         QCheck.small_int
         (fun seed ->
           let cfg =
             {
               (Runner.default_config ~hops:2 ~seed) with
               network = Runner.Async { mean = 500; cap = 20_000 };
             }
           in
           let o =
             Runner.run cfg
               (Runner.Weak
                  { Weak_protocol.default_config with patience = 2_000 })
           in
           let v = Props.Payment_props.view o in
           Props.Verdict.all_hold
             (Props.Payment_props.check_def2 ~patience_sufficient:false v)
           && Props.Payment_props.money_conserved v));
    qcheck
      (QCheck.Test.make
         ~name:"full asynchrony: the time-bounded protocol stays safe"
         ~count:25 QCheck.small_int
         (fun seed ->
           let cfg =
             {
               (Runner.default_config ~hops:2 ~seed) with
               network = Runner.Async { mean = 500; cap = 20_000 };
             }
           in
           let o = Runner.run cfg Runner.Sync_timebound in
           safety_only (Props.Payment_props.view o)));
  ]

let economics_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"every connector nets exactly her commission on success"
         ~count:40
         QCheck.(triple (int_range 1 4) (int_range 1 5000) (int_range 0 50))
         (fun (hops, value, commission) ->
           let cfg =
             { (Runner.default_config ~hops ~seed:(value + commission)) with
               value; commission }
           in
           let o = Runner.run cfg Runner.Sync_timebound in
           let v = Props.Payment_props.view o in
           let topo = o.Runner.env.Env.topo in
           Props.Payment_props.bob_paid v
           && v.Props.Payment_props.net (Topology.bob topo) = value
           && v.Props.Payment_props.net (Topology.alice topo)
              = -(value + (commission * (hops - 1)))
           && List.for_all
                (fun pid -> v.Props.Payment_props.net pid = commission)
                (connectors topo)));
    qcheck
      (QCheck.Test.make
         ~name:"on refund every customer nets exactly zero" ~count:30
         QCheck.(pair (int_range 1 4) (int_range 1 5000))
         (fun (hops, value) ->
           let topo = Topology.create ~hops in
           let cfg =
             { (Runner.default_config ~hops ~seed:value) with
               value;
               faults = [ (Topology.bob topo, Byzantine.Mute) ] }
           in
           let o = Runner.run cfg Runner.Sync_timebound in
           let v = Props.Payment_props.view o in
           List.for_all
             (fun pid -> v.Props.Payment_props.net pid = 0)
             (Topology.customers topo
             |> List.filter (fun p -> p <> Topology.bob topo))));
    Alcotest.test_case "env validates value and commission" `Quick (fun () ->
        let topo = Topology.create ~hops:2 in
        let params = Params.derive (Params.default_input ~hops:2) in
        Alcotest.check_raises "value"
          (Invalid_argument "Env.make: value must be positive") (fun () ->
            ignore (Env.make ~topo ~params ~value:0 ()));
        Alcotest.check_raises "commission"
          (Invalid_argument "Env.make: negative commission") (fun () ->
            ignore (Env.make ~topo ~params ~commission:(-1) ())));
  ]

let multi_fault_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"safety survives two simultaneous Byzantine participants"
         ~count:60
         QCheck.(triple small_int (int_bound 100) (int_bound 100))
         (fun (seed, p1, p2) ->
           let topo = Topology.create ~hops:3 in
           let candidates =
             [|
               (Topology.alice topo, Byzantine.Crash_at_start);
               (Topology.customer topo 1, Byzantine.Mute);
               (Topology.customer topo 2, Byzantine.Forge_chi_connector);
               (Topology.bob topo, Byzantine.Withhold_chi_bob);
               (Topology.bob topo, Byzantine.Eager_chi_bob);
               (Topology.escrow topo 0, Byzantine.Thief_escrow);
               (Topology.escrow topo 1, Byzantine.Premature_refund_escrow);
               (Topology.escrow topo 2, Byzantine.No_resolve_escrow);
               (Topology.escrow topo 1, Byzantine.Crash_at_start);
             |]
           in
           let f1 = candidates.(p1 mod Array.length candidates) in
           let f2 = candidates.(p2 mod Array.length candidates) in
           QCheck.assume (fst f1 <> fst f2);
           let o = run_sync ~hops:3 ~seed ~faults:[ f1; f2 ] () in
           let v = Props.Payment_props.view o in
           Props.Verdict.all_hold
             (Props.Payment_props.check_def1 ~time_bounded:false v)
           && Props.Payment_props.money_conserved v));
    qcheck
      (QCheck.Test.make
         ~name:"weak protocol: safety survives two Byzantine participants"
         ~count:40
         QCheck.(triple small_int (int_bound 100) (int_bound 100))
         (fun (seed, p1, p2) ->
           let topo = Topology.create ~hops:3 in
           let candidates =
             [|
               (Topology.alice topo, Byzantine.Impatient 0);
               (Topology.customer topo 1, Byzantine.Never_deposit);
               (Topology.customer topo 2, Byzantine.Crash_at_start);
               (Topology.bob topo, Byzantine.Impatient 50);
               (Topology.escrow topo 0, Byzantine.False_funded_escrow);
               (Topology.escrow topo 1, Byzantine.Crash_at_start);
               (Topology.escrow topo 2, Byzantine.Mute);
             |]
           in
           let f1 = candidates.(p1 mod Array.length candidates) in
           let f2 = candidates.(p2 mod Array.length candidates) in
           QCheck.assume (fst f1 <> fst f2);
           let o = run_weak ~hops:3 ~seed ~faults:[ f1; f2 ] () in
           let v = Props.Payment_props.view o in
           Props.Verdict.all_hold
             (Props.Payment_props.check_def2 ~patience_sufficient:false v)
           && Props.Payment_props.money_conserved v));
  ]

(* ----------------------- the -p and --fault grammars ---------------------- *)

(* every spelled strategy at every role of chains of 1 to 4 hops, under
   sync and under weak, split by whether the strategy fits the role *)
let all_fault_pairs =
  List.concat_map
    (fun hops ->
      let env = mk_env ~hops () in
      List.concat_map
        (fun (protocol, fits) ->
          List.concat_map
            (fun pid ->
              List.map
                (fun t -> (fits env pid t, (protocol, hops, (pid, t))))
                Byzantine.spelled)
            (List.init (Topology.payment_count env.Env.topo) Fun.id))
        [ (Runner.Sync_timebound, sync_fits);
          (Runner.Weak Weak_protocol.default_config, weak_fits) ])
    [ 1; 2; 3; 4 ]

let fault_cases =
  List.filter_map (fun (ok, c) -> if ok then Some c else None) all_fault_pairs

let inapplicable_faults =
  List.filter_map (fun (ok, c) -> if ok then None else Some c) all_fault_pairs

(* a spec travels with its protocol and chain length, as a command's -p
   and --hops do *)
let print_fault (protocol, hops, f) =
  (protocol, hops, Byzantine.fault_to_string (Topology.create ~hops) f)

let parse_fault (protocol, hops, s) =
  Result.map (fun f -> (protocol, hops, f)) (Runner.fault_of_string protocol ~hops s)

let spec_of (_, _, s) = s

let grammar_tests =
  [
    Grammar_fuzz.round_trip ~name:"protocol names round-trip"
      ~print:Proto.name
      [ Proto.Sync; Naive; Htlc; Weak_single; Committee; Shared; Atomic ]
      Proto.name Proto.of_string;
    Grammar_fuzz.round_trip ~name:"--fault specs round-trip"
      ~print:(fun c -> spec_of (print_fault c))
      fault_cases print_fault parse_fault;
    Alcotest.test_case "--fault refuses a strategy at a role it does not fit"
      `Quick (fun () ->
        check Alcotest.bool "some pairs are inapplicable" true
          (inapplicable_faults <> []);
        List.iter
          (fun ((protocol, hops, _) as c) ->
            let spec = spec_of (print_fault c) in
            let strategy, role =
              match String.split_on_char '@' spec with
              | [ s; r ] -> (s, r)
              | _ -> Alcotest.failf "%s is not strategy@role" spec
            in
            let where =
              Printf.sprintf "%s hops %d: %s" (Runner.protocol_name protocol) hops spec
            in
            match Runner.fault_of_string protocol ~hops spec with
            | Ok _ -> Alcotest.failf "%s accepted" where
            | Error e ->
                check Alcotest.string where
                  (Printf.sprintf "strategy %S does not apply to role %S"
                     strategy role)
                  e)
          inapplicable_faults);
    Grammar_fuzz.property ~name:"protocol of_string never raises"
      ~seeds:[ "sync"; "naive"; "htlc"; "weak"; "committee" ]
      (Proto.of_string ~among:Proto.single);
    Grammar_fuzz.property ~name:"--fault of_string never raises"
      ~seeds:
        [ "crash@alice"; "thief-escrow@e1"; "forge-chi@chloe2"; "mute@bob";
          "double-money@chloe0"; "no-resolve@e2" ]
      (Runner.fault_of_string Runner.Sync_timebound ~hops:3);
  ]

let () =
  Alcotest.run "protocols"
    [
      ("topology", topology_tests);
      ("params", params_tests);
      ("env", env_tests);
      ("sync_protocol", sync_tests);
      ("template", template_tests);
      ("htlc", htlc_tests);
      ("weak_protocol", weak_tests);
      ("weak_races", weak_race_tests);
      ("weak_pin", weak_pin_tests);
      ("atomic", atomic_tests);
      ("byzantine", byzantine_tests);
      ("runner", runner_tests);
      ("robustness", window_robustness_tests);
      ("multi_fault", multi_fault_tests);
      ("economics", economics_tests);
      ("grammar", grammar_tests);
    ]

(* Tests for the online runtime monitor, the sim-time sampler and the
   violation flight recorder: the agreement contract between online and
   post-hoc verdicts, stop-on-violation semantics, and byte-for-byte
   bundle determinism. *)

module C = Xchain.Chaos
module PP = Props.Payment_props
module PF = Props.Payment_fold
module Runner = Protocols.Runner
module Proto = Protocols.Proto
module FP = Faults.Fault_plan

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* the pinned violating witness: htlc breaks CS1 under duplicated
   deliveries (docs/observability.md walks through this exact run) *)
let viol_protocol = Proto.Htlc
let viol_seed = 9
let viol_plan () =
  match FP.of_string "dup *>* 0.289" with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* the soak's plan derivation, so random cases mirror real chaos runs *)
let random_case case =
  let hops = 1 + (case mod 3) in
  let protocol =
    match case mod 7 with
    | 0 | 1 -> Proto.Sync
    | 2 | 3 -> Proto.Htlc
    | 4 -> Proto.Naive
    | 5 -> Proto.Weak_single
    | _ -> Proto.Committee
  in
  let seed = 1 + (case / 2) in
  let nprocs = (2 * hops) + 1 in
  let horizon =
    (Runner.derive_params (Runner.default_config ~hops ~seed)
       (Proto.runner protocol))
      .Protocols.Params.horizon
  in
  let prng = Sim.Rng.create ~seed:(seed + 7919) in
  (hops, protocol, seed, FP.random prng ~nprocs ~horizon)

let sorted_failures (r : C.run_result) =
  List.sort String.compare
    (List.map (fun v -> v.Props.Verdict.property) r.C.failures)

let sorted_violations m =
  List.sort String.compare
    (List.map
       (fun (t : Obsv.Monitor.trip) -> t.Obsv.Monitor.property)
       (Obsv.Monitor.violations m))

(* The safety subset's failures judged post hoc, independently of the
   chaos harness: the same case run again by the runner with its trace
   kept, and the finished trace folded by [Payment_props.view]. *)
let post_hoc_failures ~hops ~protocol ~plan ~seed =
  let o =
    Runner.run
      { (Runner.default_config ~hops ~seed) with fault_plan = Some plan }
      (Proto.runner protocol)
  in
  let v = PP.view o in
  let failed (r : Props.Verdict.t) = r.applicable && not r.holds in
  let payment =
    List.filter_map
      (fun (name, check) -> if failed (check v.PP.judge) then Some name else None)
      (PF.safety o.Runner.protocol)
  in
  let es = if failed (PP.check_es v) then [ "ES" ] else [] in
  let m = if PP.money_conserved v then [] else [ "M" ] in
  List.sort String.compare (payment @ es @ m)

(* --------------------------- agreement gate --------------------------- *)

let agreement_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"online verdict agrees with the post-hoc safety report"
         ~count:60
         QCheck.(int_bound 500)
         (fun case ->
           let hops, protocol, seed, plan = random_case case in
           let m = Obsv.Monitor.create () in
           let monitored =
             C.run_one ~hops ~protocol ~monitor:m ~plan ~seed ()
           in
           let plain = C.run_one ~hops ~protocol ~plan ~seed () in
           (* arming the monitor never perturbs the run *)
           if monitored.C.classification <> plain.C.classification then
             QCheck.Test.fail_reportf "monitor changed classification: %s/%s"
               (C.classification_name monitored.C.classification)
               (C.classification_name plain.C.classification);
           if monitored.C.end_time <> plain.C.end_time then
             QCheck.Test.fail_reportf "monitor changed end time: %d/%d"
               monitored.C.end_time plain.C.end_time;
           (* the monitor's final violated set IS the run's failure set:
              both read the run's one live fold *)
           let judged = sorted_failures monitored in
           let live = sorted_violations m in
           if judged <> live then
             QCheck.Test.fail_reportf "online {%s} <> judged {%s}"
               (String.concat "," live) (String.concat "," judged);
           (* and it agrees with a post-hoc fold of a separately traced
              run of the same case *)
           let post = post_hoc_failures ~hops ~protocol ~plan ~seed in
           if post <> live then
             QCheck.Test.fail_reportf "online {%s} <> post-hoc {%s}"
               (String.concat "," live) (String.concat "," post);
           (* a breach stamp exists iff something ever tripped, and it
              never postdates the run *)
           (match Obsv.Monitor.first_trip m with
           | Some t ->
               if t.Obsv.Monitor.at < 0 || t.Obsv.Monitor.at > monitored.C.end_time
               then
                 QCheck.Test.fail_reportf "breach at %d outside run (end %d)"
                   t.Obsv.Monitor.at monitored.C.end_time
           | None ->
               if monitored.C.classification = C.Safety_violation then
                 QCheck.Test.fail_report
                   "safety violation but the monitor never tripped");
           if monitored.C.breach_at <> Obsv.Monitor.breach_at m then
             QCheck.Test.fail_report "run_result.breach_at out of sync";
           true));
    (* Two evaluators of one quantity: the load harness measures a
       customer's net position as the fold's ledger flow, the runner as
       its books' deltas. Wherever the customer's own escrows abide,
       every book operation is observed, so the two must agree. *)
    qcheck
      (QCheck.Test.make
         ~name:"fold flow equals book net where escrows abide" ~count:100
         QCheck.(int_bound 700)
         (fun case ->
           let hops, protocol, seed, plan = random_case case in
           let o =
             Runner.run
               { (Runner.default_config ~hops ~seed) with
                 fault_plan = Some plan }
               (Proto.runner protocol)
           in
           let v = PP.view o in
           let j = v.PP.judge in
           List.iter
             (fun pid ->
               let flow = PF.flow j.PF.facts pid in
               if PF.escrows_abide j pid && flow <> v.PP.net pid then
                 QCheck.Test.fail_reportf
                   "case %d pid %d: flow %d <> book net %d" case pid flow
                   (v.PP.net pid))
             (Protocols.Topology.customers o.Runner.env.Protocols.Env.topo);
           true));
    Alcotest.test_case "pinned violation: breach matches post-hoc verdict"
      `Quick (fun () ->
        let m = Obsv.Monitor.create () in
        let r =
          C.run_one ~hops:2 ~protocol:viol_protocol ~monitor:m
            ~plan:(viol_plan ()) ~seed:viol_seed ()
        in
        check Alcotest.string "classification" "safety-violation"
          (C.classification_name r.C.classification);
        check (Alcotest.list Alcotest.string) "CS1 online = CS1 post-hoc"
          (sorted_failures r) (sorted_violations m);
        check Alcotest.bool "breach stamped" true (r.C.breach_at >= 0);
        check Alcotest.bool "breach within run" true
          (r.C.breach_at <= r.C.end_time));
    Alcotest.test_case "checks run and report in registration order" `Quick
      (fun () ->
        let m = Obsv.Monitor.create () in
        let first = ref false and second = ref false in
        let check_of flag () = if !flag then Some "broken" else None in
        Obsv.Monitor.register m ~name:"FIRST" (check_of first);
        Obsv.Monitor.register m ~name:"SECOND" (check_of second);
        let names () =
          List.map
            (fun (t : Obsv.Monitor.trip) -> t.Obsv.Monitor.property)
            (Obsv.Monitor.violations m)
        in
        (* both trip in one step: the first registered trips first *)
        first := true;
        second := true;
        Obsv.Monitor.step m ~at:1;
        check Alcotest.(option string) "first trip" (Some "FIRST")
          (Option.map
             (fun (t : Obsv.Monitor.trip) -> t.Obsv.Monitor.property)
             (Obsv.Monitor.first_trip m));
        check Alcotest.(list string) "violations" [ "FIRST"; "SECOND" ] (names ());
        (* FIRST recovers and trips again after SECOND: still listed first *)
        first := false;
        Obsv.Monitor.step m ~at:2;
        first := true;
        Obsv.Monitor.step m ~at:3;
        check Alcotest.(list string) "re-tripped" [ "FIRST"; "SECOND" ] (names ()));
  ]

(* -------------------------- stop-on-violation -------------------------- *)

let stop_tests =
  [
    Alcotest.test_case "stop-on-violation ends the run at the breach time"
      `Quick (fun () ->
        (* reference run: where does the breach happen? *)
        let m0 = Obsv.Monitor.create () in
        let r0 =
          C.run_one ~hops:2 ~protocol:viol_protocol ~monitor:m0
            ~plan:(viol_plan ()) ~seed:viol_seed ()
        in
        let breach = r0.C.breach_at in
        check Alcotest.bool "reference run breaches" true (breach >= 0);
        (* stopping run: must end exactly there, with the stop status *)
        let m = Obsv.Monitor.create ~stop_on_violation:true () in
        let r =
          C.run_one ~hops:2 ~protocol:viol_protocol ~monitor:m
            ~plan:(viol_plan ()) ~seed:viol_seed ()
        in
        (match r.C.status with
        | Sim.Engine.Violation_stop -> ()
        | _ -> Alcotest.fail "expected Violation_stop status");
        check Alcotest.int "ends at first breach" breach r.C.end_time;
        check Alcotest.int "same breach stamp" breach r.C.breach_at);
    Alcotest.test_case "clean runs never stop early" `Quick (fun () ->
        let m = Obsv.Monitor.create ~stop_on_violation:true () in
        let plain = C.run_one ~plan:FP.none ~seed:1 () in
        let r = C.run_one ~monitor:m ~plan:FP.none ~seed:1 () in
        (match r.C.status with
        | Sim.Engine.Violation_stop -> Alcotest.fail "clean run stopped"
        | _ -> ());
        check Alcotest.int "same end time" plain.C.end_time r.C.end_time;
        check Alcotest.int "no breach" (-1) r.C.breach_at);
  ]

(* ------------------------- bundle determinism -------------------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* the pinned violating run with the full watch armed; [recorder] is the
   flight recorder (a bounded trace view by default) *)
let run_bundled ?(recorder = Sim.Trace.create ~capacity:256 ()) () =
  let m = Obsv.Monitor.create () in
  let s = Obsv.Sampler.create () in
  let r =
    C.run_one ~hops:2 ~protocol:viol_protocol ~monitor:m ~sampler:s ~recorder
      ~plan:(viol_plan ()) ~seed:viol_seed ()
  in
  (C.bundle ~monitor:m ~recorder r, Obsv.Sampler.to_jsonl s, r)

let bundle_tests =
  [
    Alcotest.test_case "replaying the repro reproduces the bundle byte for \
                        byte" `Quick (fun () ->
        let b1, s1, r1 = run_bundled () in
        let b2, s2, _ = run_bundled () in
        check Alcotest.string "bundle bit-identical" b1 b2;
        check Alcotest.string "series bit-identical" s1 s2;
        (* the bundle names the breach the monitor stamped *)
        check Alcotest.bool "reason violation" true
          (contains b1 "\"reason\":\"violation\"");
        check Alcotest.bool "breach time embedded" true
          (contains b1 (Printf.sprintf "\"at\":%d" r1.C.breach_at));
        check Alcotest.bool "repro embedded" true
          (contains b1 (C.repro_line r1));
        check Alcotest.bool "replay_bundle is the same bundle" true
          (C.replay_bundle ~hops:2 ~protocol:viol_protocol
             ~plan:(viol_plan ()) ~seed:viol_seed ()
          = b1));
    Alcotest.test_case "stuck runs bundle with reason stuck" `Quick (fun () ->
        (* a crashed escrow with no recovery wedges the sync payment; no
           causal recorder is armed *)
        let plan =
          match FP.of_string "crash 3@50" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let m = Obsv.Monitor.create () in
        let rc = Sim.Trace.create ~capacity:256 () in
        let r = C.run_one ~monitor:m ~recorder:rc ~plan ~seed:1 () in
        check Alcotest.string "stuck" "stuck"
          (C.classification_name r.C.classification);
        let b = C.bundle ~monitor:m ~recorder:rc r in
        check Alcotest.bool "reason stuck" true
          (contains b "\"reason\":\"stuck\"");
        check Alcotest.bool "no breach property" true
          (contains b "\"property\":\"-\"");
        check Alcotest.bool "window names the crashed pid" true
          (contains b {|"kind":"crashed","t":50,"pid":3,|}));
    Alcotest.test_case "the window is the tail of the run's full trace"
      `Quick (fun () ->
        let full = Sim.Trace.create () in
        let _ = run_bundled ~recorder:full () in
        let lines =
          List.filter (( <> ) "")
            (String.split_on_char '\n' (Runner.trace_jsonl full))
        in
        let n = List.length lines in
        (* the CLI's 256 entries hold this whole run; 16 make the ring
           wrap, so the window's seq numbers start past 0 *)
        List.iter
          (fun cap ->
            let b, _, _ =
              run_bundled ~recorder:(Sim.Trace.create ~capacity:cap ()) ()
            in
            let kept = min n cap in
            let tail = List.filteri (fun i _ -> i >= n - kept) lines in
            check Alcotest.bool "counters" true
              (contains b
                 (Printf.sprintf
                    {|"ring":{"capacity":%d,"recorded":%d,"dropped":%d,|} cap
                    n (n - kept)));
            check Alcotest.bool "window = trace tail" true
              (contains b
                 (Printf.sprintf {|"window":[%s]}|} (String.concat "," tail))))
          [ 256; 16 ]);
  ]

(* ------------------------------ sampler -------------------------------- *)

let sampler_tests =
  [
    Alcotest.test_case "series rows are nondecreasing in sim-time" `Quick
      (fun () ->
        let s = Obsv.Sampler.create ~interval:50 () in
        let r = C.run_one ~sampler:s ~plan:FP.none ~seed:1 () in
        (* each row's sim-time, read from the JSONL series *)
        let rows =
          String.split_on_char '\n' (Obsv.Sampler.to_jsonl s)
          |> List.filter_map (fun l ->
                 if String.starts_with ~prefix:{|{"t":|} l then
                   Some (Scanf.sscanf l {|{"t":%d|} (fun t -> (t, ())))
                 else None)
        in
        check Alcotest.bool "sampled" true (List.length rows > 0);
        let rec mono = function
          | (a, _) :: ((b, _) :: _ as tl) ->
              if a > b then Alcotest.failf "rows go back in time: %d > %d" a b;
              mono tl
          | _ -> ()
        in
        mono rows;
        List.iter
          (fun (t, _) ->
            if t < 0 || t > r.C.end_time then
              Alcotest.failf "row at %d outside run" t)
          rows);
    Alcotest.test_case "soak with monitor matches soak without" `Quick
      (fun () ->
        let a = C.soak ~protocol:viol_protocol ~runs:20 ~seed:1 () in
        let b = C.soak ~protocol:viol_protocol ~runs:20 ~monitor:true ~seed:1 () in
        check Alcotest.int "commits" a.C.commits b.C.commits;
        check Alcotest.int "aborts" a.C.aborts b.C.aborts;
        check Alcotest.int "stuck" a.C.stuck b.C.stuck;
        check Alcotest.int "violations"
          (List.length a.C.violations)
          (List.length b.C.violations);
        (* monitored soaks stamp every violation with its breach time *)
        List.iter
          (fun (r : C.run_result) ->
            check Alcotest.bool "breach stamped" true (r.C.breach_at >= 0))
          b.C.violations);
  ]

(* ------------------------- monitored load runs ------------------------ *)

let load_spec s =
  match Traffic.Workload.of_string s with
  | Ok w -> w
  | Error e -> Alcotest.fail ("bad spec: " ^ e)

(* the whole report with its host-measured member pinned *)
let report_json r = Traffic.Load.to_json { r with Traffic.Load.cost = Fleet.no_cost }

let load_monitor_tests =
  let case name s seed =
    Alcotest.test_case name `Quick (fun () ->
        let workload = load_spec s in
        let plain = Traffic.Load.run ~workload ~seed () in
        let m = Obsv.Monitor.create () in
        let watched = Traffic.Load.run ~monitor:m ~workload ~seed () in
        check Alcotest.string "report" (report_json plain)
          (report_json watched);
        check Alcotest.bool "commits" true (watched.Traffic.Load.committed > 0);
        check Alcotest.bool "conservation" true
          watched.Traffic.Load.conservation_ok;
        check Alcotest.(list string) "monitor clean" [] (sorted_violations m);
        check Alcotest.bool "never tripped" true
          (Obsv.Monitor.first_trip m = None);
        (* one step after every dispatched event, plus the final one *)
        check Alcotest.int "steps" (watched.Traffic.Load.events + 1)
          (Obsv.Monitor.steps m))
  in
  let common =
    "hops=2 value=1000 commission=10 cap=0 stuck=0 gst=none payments=80 \
     arrival=poisson:20 mix=sync:1,weak:1,htlc:1 policy=reserve liquidity=0 \
     patience=2000 drift=10000"
  in
  [
    case "monitoring never changes a linear reserve run" common 3;
    case "monitoring never changes a hub:3 routed run"
      (common ^ " topology=hub:3 splits=2")
      4;
    Alcotest.test_case "a monitor step allocates nothing while the run is sound"
      `Quick (fun () ->
        (* the conservation audit runs on every dispatch: with every book
           sound it allocates nothing, so the monitored run costs only
           the monitor's set-up on top of the plain one *)
        let workload =
          load_spec
            "payments=200 hops=2 value=1000 commission=10 arrival=poisson:4 \
             mix=sync:2,weak:2,htlc:1,atomic:1 policy=reserve cap=0 \
             liquidity=0 patience=2000 stuck=0 drift=10000 gst=none"
        in
        let words run =
          let before = Gc.minor_words () in
          let r = run () in
          (r, Gc.minor_words () -. before)
        in
        (* a first run fills the process-wide template memos *)
        ignore (Traffic.Load.run ~workload ~seed:1 ());
        let _, plain =
          words (fun () -> Traffic.Load.run ~workload ~seed:1 ())
        in
        let m = Obsv.Monitor.create () in
        let r, watched =
          words (fun () -> Traffic.Load.run ~monitor:m ~workload ~seed:1 ())
        in
        check Alcotest.int "committed" 200 r.Traffic.Load.committed;
        let steps = Obsv.Monitor.steps m in
        let extra = watched -. plain in
        if extra > float_of_int steps then
          Alcotest.failf "the monitor added %.0f words over %d steps" extra
            steps);
  ]

let () =
  Alcotest.run "monitor"
    [
      ("agreement", agreement_tests);
      ("stop-on-violation", stop_tests);
      ("bundles", bundle_tests);
      ("sampler", sampler_tests);
      ("load", load_monitor_tests);
    ]

(* Tests for the fault-injection subsystem: the declarative plan grammar,
   the deterministic injector, engine crash–recovery semantics, runner
   wiring, and the chaos soak's safety guarantee. *)

open Sim
module FP = Faults.Fault_plan

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let plan_of s =
  match FP.of_string s with Ok p -> p | Error e -> Alcotest.fail e

(* Arbitrary plan records for 6 processes, unconstrained by the grammar:
   link rules may combine several kinds in one record (which the grammar
   prints as separate clauses), probabilities and windows may be
   degenerate (which validate rejects). *)
let arbitrary_plan =
  let open QCheck.Gen in
  let endpoint = oneof [ return None; map Option.some (int_range 0 5) ] in
  let pm = int_range 0 1000 in
  let link =
    map
      (fun ((src, dst), (drop_pm, dup_pm, corrupt_pm)) ->
        { FP.src; dst; drop_pm; dup_pm; corrupt_pm })
      (pair (pair endpoint endpoint) (triple pm pm pm))
  in
  let crash =
    map
      (fun (pid, at, dur) ->
        { FP.pid; at; recover_at = Option.map (fun d -> at + d) dur })
      (triple (int_range 0 5) (int_range 0 1_000) (option (int_range 0 500)))
  in
  let partition =
    map
      (fun (((cut, from_), dur), named) ->
        let pids = [ 0; 1; 2; 3; 4; 5 ] in
        let groups =
          [
            List.filteri (fun i _ -> i < cut) pids;
            List.filteri (fun i _ -> i >= cut) pids;
          ]
        in
        let gnames =
          if named then
            List.mapi (fun i _ -> Some (Printf.sprintf "blk%d" i)) groups
          else []
        in
        { FP.groups; gnames; from_; until_ = Option.map (fun d -> from_ + d) dur })
      (pair
         (pair (pair (int_range 1 5) (int_range 0 1_000)) (option (int_range 0 500)))
         bool)
  in
  let plan =
    map
      (fun ((links, crashes), (partitions, gst_jitter)) ->
        (* keep at most one crash per pid so only interesting validation
           failures (degenerate windows, zero rules) remain reachable *)
        let crashes =
          List.rev
            (List.fold_left
               (fun acc (c : FP.crash_spec) ->
                 if
                   List.exists
                     (fun (c' : FP.crash_spec) -> c'.FP.pid = c.FP.pid)
                     acc
                 then acc
                 else c :: acc)
               [] crashes)
        in
        { FP.links; crashes; partitions; gst_jitter })
      (pair
         (pair (list_size (int_range 0 4) link) (list_size (int_range 0 3) crash))
         (pair (list_size (int_range 0 2) partition) (int_range 0 100)))
  in
  QCheck.make ~print:(fun p -> FP.to_string p) plan

(* ------------------------------ fault plan ----------------------------- *)

let plan_tests =
  [
    Alcotest.test_case "empty plan prints and parses as none" `Quick (fun () ->
        check Alcotest.string "print" "none" (FP.to_string FP.none);
        check Alcotest.bool "parse none" true (FP.of_string "none" = Ok FP.none);
        check Alcotest.bool "parse empty" true (FP.of_string "" = Ok FP.none));
    Alcotest.test_case "full grammar roundtrip" `Quick (fun () ->
        let s =
          "drop *>3 0.2; dup 1>* 0.05; corrupt *>* 0.001; crash 2@500+800; \
           part 0,1|2,3@200+400; gst+50"
        in
        let p = plan_of s in
        check Alcotest.string "roundtrip" s (FP.to_string p);
        check Alcotest.int "links" 3 (List.length p.FP.links);
        check Alcotest.int "crashes" 1 (List.length p.FP.crashes);
        (match p.FP.crashes with
        | [ c ] ->
            check Alcotest.int "pid" 2 c.FP.pid;
            check Alcotest.int "at" 500 c.FP.at;
            check Alcotest.(option int) "recover" (Some 1300) c.FP.recover_at
        | _ -> Alcotest.fail "one crash expected");
        check Alcotest.int "gst" 50 p.FP.gst_jitter);
    Alcotest.test_case "probabilities parse to per mille" `Quick (fun () ->
        let pm s =
          match (plan_of (Printf.sprintf "drop *>* %s" s)).FP.links with
          | [ r ] -> r.FP.drop_pm
          | _ -> Alcotest.fail "one rule expected"
        in
        check Alcotest.int "1" 1000 (pm "1");
        check Alcotest.int "0.5" 500 (pm "0.5");
        check Alcotest.int "0.25" 250 (pm "0.25");
        check Alcotest.int "0.005" 5 (pm "0.005");
        check Alcotest.int ".3" 300 (pm ".3");
        check Alcotest.int "0" 0 (pm "0"));
    Alcotest.test_case "malformed plans are rejected" `Quick (fun () ->
        let bad s =
          match FP.of_string s with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %S" s
        in
        bad "drop *>* 1.5";
        bad "drop * 0.1";
        bad "crash x@10";
        bad "crash 1@10+0";
        bad "part 0,1@5";
        bad "part 3-1|4@5";
        bad "part 2bad:0,1|b:2,3@5";
        bad "gst+abc";
        bad "flood *>* 0.1");
    Alcotest.test_case "named groups and ranges parse" `Quick (fun () ->
        (* a range is parse-time sugar for the inclusive pid list *)
        check Alcotest.string "range expands" "part 0,1,2|3,4,5@9"
          (FP.to_string (plan_of "part 0-2|3-5@9"));
        (* group names survive the roundtrip verbatim *)
        let named = "part wing_a:0,1|wing_b:2,3@200+400" in
        check Alcotest.string "names roundtrip" named
          (FP.to_string (plan_of named));
        let p = plan_of named in
        (match p.FP.partitions with
        | [ s ] ->
            check
              Alcotest.(list (option string))
              "gnames parallel" [ Some "wing_a"; Some "wing_b" ] s.FP.gnames
        | _ -> Alcotest.fail "one partition expected");
        (* naming is all-or-nothing and names must be distinct *)
        let invalid s =
          match FP.validate (plan_of s) ~nprocs:6 with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "validated %S" s
        in
        invalid "part a:0,1|2,3@5";
        invalid "part a:0,1|a:2,3@5");
    Alcotest.test_case "validate catches structural errors" `Quick (fun () ->
        let invalid s =
          match FP.validate (plan_of s) ~nprocs:4 with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "validated %S" s
        in
        invalid "drop 4>* 0.1";
        invalid "crash 9@10";
        invalid "crash 1@10; crash 1@20";
        invalid "part 0,1|1,2@5";
        check Alcotest.bool "good plan ok" true
          (FP.validate (plan_of "drop *>3 0.2; crash 2@500+800") ~nprocs:4
          = Ok ()));
    qcheck
      (QCheck.Test.make ~name:"random plans roundtrip exactly" ~count:500
         QCheck.(pair small_int (int_range 1 9))
         (fun (seed, nprocs) ->
           let rng = Rng.create ~seed in
           let p = FP.random rng ~nprocs ~horizon:2_000 in
           FP.of_string (FP.to_string p) = Ok p));
    qcheck
      (QCheck.Test.make ~name:"random plans validate for their nprocs"
         ~count:500
         QCheck.(pair small_int (int_range 1 9))
         (fun (seed, nprocs) ->
           let rng = Rng.create ~seed in
           let p = FP.random rng ~nprocs ~horizon:2_000 in
           FP.validate p ~nprocs = Ok ()));
    Alcotest.test_case "normalize splits combined rules in kind order" `Quick
      (fun () ->
        let combined =
          {
            FP.links =
              [
                {
                  FP.src = Some 0;
                  dst = None;
                  drop_pm = 100;
                  dup_pm = 0;
                  corrupt_pm = 50;
                };
              ];
            crashes = [];
            partitions = [];
            gst_jitter = 0;
          }
        in
        let n = FP.normalize combined in
        check Alcotest.string "canonical print"
          "drop 0>* 0.1; corrupt 0>* 0.05" (FP.to_string n);
        (* printing a combined rule yields one clause per kind, so the
           general round-trip law goes through normalize *)
        check Alcotest.bool "roundtrip via normalize" true
          (FP.of_string (FP.to_string combined) = Ok n);
        check Alcotest.bool "idempotent" true (FP.normalize n = n));
    Alcotest.test_case "validate rejects degenerate clauses" `Quick (fun () ->
        let invalid p =
          match FP.validate p ~nprocs:4 with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "validated %s" (FP.to_string p)
        in
        let base = FP.none in
        (* an all-zero link rule matches sends but never does anything *)
        invalid
          {
            base with
            FP.links =
              [
                { FP.src = None; dst = None; drop_pm = 0; dup_pm = 0;
                  corrupt_pm = 0 };
              ];
          };
        (* a crash that recovers the instant it happens is no outage *)
        invalid
          { base with FP.crashes = [ { FP.pid = 1; at = 10; recover_at = Some 10 } ] };
        invalid
          { base with FP.crashes = [ { FP.pid = 1; at = -5; recover_at = None } ] };
        (* a partition that heals when it starts is no window *)
        invalid
          {
            base with
            FP.partitions =
              [ { FP.groups = [ [ 0 ]; [ 1 ] ]; gnames = []; from_ = 7; until_ = Some 7 } ];
          };
        invalid { base with FP.gst_jitter = -1 });
    (* arbitrary records — combined rules included — round-trip through
       the grammar up to normalize, whenever they validate at all *)
    qcheck
      (QCheck.Test.make ~name:"valid plans roundtrip up to normalize"
         ~count:1_000 arbitrary_plan (fun p ->
           match FP.validate p ~nprocs:6 with
           | Error _ -> QCheck.assume_fail ()
           | Ok () ->
               FP.of_string (FP.to_string p) = Ok (FP.normalize p)
               && FP.normalize (FP.normalize p) = FP.normalize p
               && FP.validate (FP.normalize p) ~nprocs:6 = Ok ()));
  ]

(* ------------------------------- injector ------------------------------ *)

let fates inj ~n ~src ~dst =
  List.init n (fun i ->
      Faults.Injector.tamper inj ~send_time:(i * 10) ~src ~dst ~tag:"m")

let injector_tests =
  [
    Alcotest.test_case "same plan and seed give the same fates" `Quick
      (fun () ->
        let plan = plan_of "drop *>* 0.3; dup *>* 0.2; corrupt *>* 0.1" in
        let mk () =
          Faults.Injector.create
            ~metrics:(Obsv.Metrics.create ())
            ~plan ~seed:5 ()
        in
        check Alcotest.bool "deterministic" true
          (fates (mk ()) ~n:200 ~src:0 ~dst:1
          = fates (mk ()) ~n:200 ~src:0 ~dst:1));
    Alcotest.test_case "empty plan never touches a send" `Quick (fun () ->
        let inj =
          Faults.Injector.create
            ~metrics:(Obsv.Metrics.create ())
            ~plan:FP.none ~seed:1 ()
        in
        List.iter
          (fun f -> check Alcotest.bool "intact" true (f = [ Network.Intact ]))
          (fates inj ~n:100 ~src:0 ~dst:1));
    Alcotest.test_case "drop 1 empties every fate on the matching link" `Quick
      (fun () ->
        let inj =
          Faults.Injector.create
            ~metrics:(Obsv.Metrics.create ())
            ~plan:(plan_of "drop 0>1 1") ~seed:1 ()
        in
        List.iter
          (fun f -> check Alcotest.bool "dropped" true (f = []))
          (fates inj ~n:50 ~src:0 ~dst:1);
        List.iter
          (fun f -> check Alcotest.bool "other link intact" true
              (f = [ Network.Intact ]))
          (fates inj ~n:50 ~src:1 ~dst:0));
    Alcotest.test_case "dup 1 duplicates every send" `Quick (fun () ->
        let inj =
          Faults.Injector.create
            ~metrics:(Obsv.Metrics.create ())
            ~plan:(plan_of "dup *>* 1") ~seed:1 ()
        in
        List.iter
          (fun f -> check Alcotest.int "two copies" 2 (List.length f))
          (fates inj ~n:50 ~src:0 ~dst:1));
    Alcotest.test_case "corrupt 1 marks every copy" `Quick (fun () ->
        let inj =
          Faults.Injector.create
            ~metrics:(Obsv.Metrics.create ())
            ~plan:(plan_of "corrupt *>* 1") ~seed:1 ()
        in
        List.iter
          (fun f ->
            check Alcotest.bool "corrupted" true (f = [ Network.Corrupted ]))
          (fates inj ~n:50 ~src:0 ~dst:1));
    Alcotest.test_case "partition drops cross-group sends while active" `Quick
      (fun () ->
        let inj =
          Faults.Injector.create
            ~metrics:(Obsv.Metrics.create ())
            ~plan:(plan_of "part 0,1|2,3@100+200") ~seed:1 ()
        in
        let fate ~send_time ~src ~dst =
          Faults.Injector.tamper inj ~send_time ~src ~dst ~tag:"m"
        in
        check Alcotest.bool "before" true
          (fate ~send_time:50 ~src:0 ~dst:2 = [ Network.Intact ]);
        check Alcotest.bool "cross during" true
          (fate ~send_time:150 ~src:0 ~dst:2 = []);
        check Alcotest.bool "within group during" true
          (fate ~send_time:150 ~src:0 ~dst:1 = [ Network.Intact ]);
        check Alcotest.bool "unlisted pid during" true
          (fate ~send_time:150 ~src:0 ~dst:7 = [ Network.Intact ]);
        check Alcotest.bool "after heal" true
          (fate ~send_time:300 ~src:0 ~dst:2 = [ Network.Intact ]));
    Alcotest.test_case "injections are counted by kind" `Quick (fun () ->
        let metrics = Obsv.Metrics.create () in
        let inj =
          Faults.Injector.create ~metrics
            ~plan:(plan_of "drop 0>1 1; part 2,3|4,5@0")
            ~seed:1 ()
        in
        ignore (fates inj ~n:10 ~src:0 ~dst:1);
        ignore (Faults.Injector.tamper inj ~send_time:5 ~src:2 ~dst:4 ~tag:"m");
        let count kind =
          Metric_value.counter metrics ~labels:[ ("kind", kind) ]
            "xchain_faults_injected_total"
        in
        check Alcotest.int "drops" 10 (count "drop");
        check Alcotest.int "partition" 1 (count "partition"));
    Alcotest.test_case "gst jitter shifts only psync models" `Quick (fun () ->
        let inj =
          Faults.Injector.create
            ~metrics:(Obsv.Metrics.create ())
            ~plan:(plan_of "gst+50") ~seed:1 ()
        in
        check Alcotest.bool "psync shifted" true
          (Faults.Injector.jittered_model inj
             (Network.Partially_synchronous { gst = 100; delta = 10 })
          = Network.Partially_synchronous { gst = 150; delta = 10 });
        check Alcotest.bool "sync untouched" true
          (Faults.Injector.jittered_model inj
             (Network.Synchronous { delta = 10 })
          = Network.Synchronous { delta = 10 }));
  ]

(* -------------------------- engine crash–recovery ---------------------- *)

type msg = Ping

let mk_engine ?mangle ?tamper ?(seed = 1) () =
  let network =
    Network.create ?tamper
      ~metrics:(Obsv.Metrics.create ())
      (Network.Synchronous { delta = 10 })
      (Rng.create ~seed:(seed + 1))
  in
  Engine.create
    ~tag_of:(fun Ping -> "ping")
    ?mangle ~network
    ~metrics:(Obsv.Metrics.create ())
    ~seed ()

let pinger ~dst ~every =
  {
    Engine.on_start =
      (fun ctx ->
        Engine.send ctx ~dst Ping;
        Engine.set_timer_after ctx ~after:every ~label:"tick");
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer =
      (fun ctx ~label:_ ->
        if Engine.local_now ctx < 500 then begin
          Engine.send ctx ~dst Ping;
          Engine.set_timer_after ctx ~after:every ~label:"tick"
        end);
  }

let counter_handlers received =
  {
    Engine.on_start = (fun _ -> ());
    on_receive = (fun _ ~src:_ _ -> incr received);
    on_timer = (fun _ ~label:_ -> ());
  }

let crash_tests =
  [
    Alcotest.test_case "a down process silently discards deliveries" `Quick
      (fun () ->
        let run ~crash =
          let e = mk_engine () in
          let received = ref 0 in
          ignore (Engine.add_process e (pinger ~dst:1 ~every:50));
          ignore (Engine.add_process e (counter_handlers received));
          if crash then Engine.schedule_crash e ~pid:1 ~at:200 ();
          ignore (Engine.run e);
          !received
        in
        let all = run ~crash:false and cut = run ~crash:true in
        check Alcotest.bool "fewer deliveries" true (cut < all && cut > 0));
    Alcotest.test_case "recovery resumes deliveries" `Quick (fun () ->
        let e = mk_engine () in
        let received = ref 0 in
        ignore (Engine.add_process e (pinger ~dst:1 ~every:50));
        ignore (Engine.add_process e (counter_handlers received));
        Engine.schedule_crash e ~pid:1 ~at:100 ~recover_at:300 ();
        ignore (Engine.run e);
        (* ~10 pings total; those landing inside [100, 300) are lost *)
        check Alcotest.bool "lost some" true (!received < 10 && !received >= 5));
    Alcotest.test_case "timer fires swallowed by an outage re-run at reboot"
      `Quick (fun () ->
        let e = mk_engine () in
        let fired_at = ref [] in
        let p =
          {
            Engine.on_start =
              (fun ctx -> Engine.set_timer ctx ~deadline:150 ~label:"d");
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer =
              (fun ctx ~label:_ ->
                fired_at := Engine.local_now ctx :: !fired_at);
          }
        in
        ignore (Engine.add_process e p);
        Engine.schedule_crash e ~pid:0 ~at:100 ~recover_at:400 ();
        ignore (Engine.run e);
        (* the deadline passed mid-outage; the recovered process must see
           the expired deadline immediately at reboot, not never *)
        check Alcotest.(list int) "fired once at reboot" [ 400 ] !fired_at);
    Alcotest.test_case "no recovery means timers never fire" `Quick (fun () ->
        let e = mk_engine () in
        let fired = ref false in
        let p =
          {
            Engine.on_start =
              (fun ctx -> Engine.set_timer ctx ~deadline:150 ~label:"d");
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> fired := true);
          }
        in
        ignore (Engine.add_process e p);
        Engine.schedule_crash e ~pid:0 ~at:100 ();
        check Alcotest.bool "quiescent" true (Engine.run e = Engine.Quiescent);
        check Alcotest.bool "never fired" false !fired);
    Alcotest.test_case "crash and recovery land in the trace" `Quick (fun () ->
        let e = mk_engine () in
        ignore (Engine.add_process e Engine.silent);
        Engine.schedule_crash e ~pid:0 ~at:50 ~recover_at:80 ();
        ignore (Engine.run e);
        let kinds =
          List.filter_map
            (function
              | Trace.Crashed { t; pid; recover_at } ->
                  Some (Printf.sprintf "crash:%d:%d:%s" t pid
                          (match recover_at with
                          | Some r -> string_of_int r
                          | None -> "never"))
              | Trace.Recovered { t; pid } ->
                  Some (Printf.sprintf "recover:%d:%d" t pid)
              | _ -> None)
            (Trace.to_list (Engine.trace e))
        in
        check
          Alcotest.(list string)
          "entries"
          [ "crash:50:0:80"; "recover:80:0" ]
          kinds);
    Alcotest.test_case "schedule_crash validates its arguments" `Quick
      (fun () ->
        let e = mk_engine () in
        ignore (Engine.add_process e Engine.silent);
        Alcotest.check_raises "bad pid"
          (Invalid_argument "Engine.schedule_crash: bad pid") (fun () ->
            Engine.schedule_crash e ~pid:7 ~at:10 ());
        Alcotest.check_raises "recovery before crash"
          (Invalid_argument
             "Engine.schedule_crash: recovery must follow the crash")
          (fun () -> Engine.schedule_crash e ~pid:0 ~at:10 ~recover_at:10 ()));
    Alcotest.test_case "corrupted copies die without a mangler" `Quick
      (fun () ->
        let tamper ~send_time:_ ~src:_ ~dst:_ ~tag:_ = [ Network.Corrupted ] in
        let e = mk_engine ~tamper () in
        let received = ref 0 in
        ignore (Engine.add_process e (pinger ~dst:1 ~every:50));
        ignore (Engine.add_process e (counter_handlers received));
        ignore (Engine.run e);
        check Alcotest.int "all dropped" 0 !received);
    Alcotest.test_case "a mangler can rewrite corrupted copies" `Quick
      (fun () ->
        let tamper ~send_time:_ ~src:_ ~dst:_ ~tag:_ = [ Network.Corrupted ] in
        let mangle Ping _rng = Some Ping in
        let e = mk_engine ~tamper ~mangle () in
        let received = ref 0 in
        ignore (Engine.add_process e (pinger ~dst:1 ~every:50));
        ignore (Engine.add_process e (counter_handlers received));
        ignore (Engine.run e);
        check Alcotest.bool "delivered mangled" true (!received > 0));
    Alcotest.test_case "duplicated sends deliver twice" `Quick (fun () ->
        let tamper ~send_time:_ ~src:_ ~dst:_ ~tag:_ =
          [ Network.Intact; Network.Intact ]
        in
        let e = mk_engine ~tamper () in
        let received = ref 0 in
        let one_shot =
          {
            Engine.on_start = (fun ctx -> Engine.send ctx ~dst:1 Ping);
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        ignore (Engine.add_process e one_shot);
        ignore (Engine.add_process e (counter_handlers received));
        ignore (Engine.run e);
        check Alcotest.int "two deliveries" 2 !received);
  ]

(* ------------------------------- runner -------------------------------- *)

let runner_tests =
  [
    Alcotest.test_case "config validation rejects nonsense" `Quick (fun () ->
        let base = Protocols.Runner.default_config ~hops:2 ~seed:1 in
        let rejects what cfg =
          match Protocols.Runner.run cfg Protocols.Runner.Sync_timebound with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "accepted %s" what
        in
        rejects "hops 0" { base with Protocols.Runner.hops = 0 };
        rejects "value 0" { base with Protocols.Runner.value = 0 };
        rejects "negative commission"
          { base with Protocols.Runner.commission = -1 };
        rejects "bad plan"
          { base with
            Protocols.Runner.fault_plan = Some (plan_of "crash 99@10") });
    Alcotest.test_case "crashed pids are registered as non-abiding" `Quick
      (fun () ->
        let cfg =
          { (Protocols.Runner.default_config ~hops:2 ~seed:1) with
            Protocols.Runner.fault_plan =
              Some (plan_of "crash 1@100; crash 2@50+500")
          }
        in
        let o = Protocols.Runner.run cfg Protocols.Runner.Sync_timebound in
        check Alcotest.(option string) "crash-stop" (Some "crash-stop")
          (List.assoc_opt 1 o.Protocols.Runner.fault_names);
        check Alcotest.(option string) "crash-recovery" (Some "crash-recovery")
          (List.assoc_opt 2 o.Protocols.Runner.fault_names));
    Alcotest.test_case "fault-free plan leaves the schedule untouched" `Quick
      (fun () ->
        let run plan =
          let cfg =
            { (Protocols.Runner.default_config ~hops:2 ~seed:7) with
              Protocols.Runner.fault_plan = plan }
          in
          let o = Protocols.Runner.run cfg Protocols.Runner.Sync_timebound in
          (o.Protocols.Runner.message_count, o.Protocols.Runner.end_time)
        in
        check
          Alcotest.(pair int int)
          "same run" (run None)
          (run (Some FP.none)));
    Alcotest.test_case "runs under a plan are reproducible" `Quick (fun () ->
        let run () =
          let cfg =
            { (Protocols.Runner.default_config ~hops:3 ~seed:13) with
              Protocols.Runner.fault_plan =
                Some (plan_of "drop *>* 0.2; dup *>* 0.1; crash 2@300+900")
            }
          in
          let o = Protocols.Runner.run cfg Protocols.Runner.Sync_timebound in
          Fmt.str "%a"
            (Sim.Trace.pp ~msg:Protocols.Msg.pp ~obs:Protocols.Obs.pp)
            o.Protocols.Runner.trace
        in
        check Alcotest.bool "identical traces" true (run () = run ()));
  ]

(* -------------------------------- chaos -------------------------------- *)

let chaos_tests =
  [
    Alcotest.test_case "clean run commits" `Quick (fun () ->
        let r = Xchain.Chaos.run_one ~plan:FP.none ~seed:1 () in
        check Alcotest.string "commit" "safe-commit"
          (Xchain.Chaos.classification_name r.Xchain.Chaos.classification));
    Alcotest.test_case "total blackout is stuck, never unsafe" `Quick
      (fun () ->
        let r =
          Xchain.Chaos.run_one ~plan:(plan_of "drop *>* 1") ~seed:1 ()
        in
        check Alcotest.string "stuck" "stuck"
          (Xchain.Chaos.classification_name r.Xchain.Chaos.classification));
    Alcotest.test_case
      "soak: 200 random plans, zero safety violations (Thm 1 protocol)"
      `Slow (fun () ->
        let s = Xchain.Chaos.soak ~runs:200 ~seed:1 () in
        check Alcotest.int "runs" 200 s.Xchain.Chaos.runs;
        check Alcotest.int "violations" 0
          (List.length s.Xchain.Chaos.violations);
        check Alcotest.int "classified" 200
          (s.Xchain.Chaos.commits + s.Xchain.Chaos.aborts
         + s.Xchain.Chaos.stuck));
    Alcotest.test_case "every soak run replays from its (seed, plan)" `Quick
      (fun () ->
        (* re-derive the plan of soak run i exactly as the soak does and
           check the standalone run classifies identically *)
        let seed = 99 in
        for i = 0 to 19 do
          let run_seed = seed + i in
          let prng = Rng.create ~seed:(run_seed + 7919) in
          let plan = FP.random prng ~nprocs:5 ~horizon:4_345 in
          let a = Xchain.Chaos.run_one ~plan ~seed:run_seed () in
          let b =
            Xchain.Chaos.run_one
              ~plan:(plan_of (FP.to_string a.Xchain.Chaos.plan))
              ~seed:run_seed ()
          in
          check Alcotest.string
            (Printf.sprintf "run %d" i)
            (Xchain.Chaos.classification_name a.Xchain.Chaos.classification)
            (Xchain.Chaos.classification_name b.Xchain.Chaos.classification);
          check Alcotest.int
            (Printf.sprintf "end time %d" i)
            a.Xchain.Chaos.end_time b.Xchain.Chaos.end_time
        done);
    Alcotest.test_case "repro line's -p and --fault parse back" `Quick
      (fun () ->
        let module P = Protocols in
        let hops = 3 in
        let topo = P.Topology.create ~hops in
        let faults =
          [ (P.Topology.escrow topo 1, P.Byzantine.Thief_escrow);
            (P.Topology.customer topo 2, P.Byzantine.Never_deposit);
            (P.Topology.escrow topo 2, P.Byzantine.Crash_at_start);
            (P.Topology.bob topo, P.Byzantine.Mute) ]
        in
        let r =
          Xchain.Chaos.run_one ~hops ~protocol:P.Proto.Committee ~faults
            ~plan:(plan_of "crash 1@100") ~seed:4 ()
        in
        (* the value after each occurrence of [flag] in the line *)
        let rec after flag = function
          | f :: v :: rest when f = flag -> v :: after flag rest
          | _ :: rest -> after flag rest
          | [] -> []
        in
        let tokens =
          String.split_on_char ' ' (Xchain.Chaos.repro_line r)
        in
        check Alcotest.bool "-p" true
          (List.map (P.Proto.of_string ~among:P.Proto.single)
             (after "-p" tokens)
          = [ Ok P.Proto.Committee ]);
        check Alcotest.bool "--fault" true
          (List.map
             (P.Runner.fault_of_string (P.Proto.runner P.Proto.Committee) ~hops)
             (after "--fault" tokens)
          = List.map Result.ok faults));
  ]

let () =
  Alcotest.run "faults"
    [
      ("fault_plan", plan_tests);
      ( "grammar",
        [
          Grammar_fuzz.property ~name:"fault plan of_string never raises"
            ~seeds:
              [
                "drop *>3 0.2; dup 1>* 0.05; corrupt *>* 0.001; \
                 crash 2@500+800; part 0,1|2,3@200+400; gst+50";
                "part wing_a:0-2|wing_b:3,4@9+100; crash 4@1500";
                "none";
              ]
            FP.of_string;
        ] );
      ("injector", injector_tests);
      ("crash_recovery", crash_tests);
      ("runner", runner_tests);
      ("chaos", chaos_tests);
    ]

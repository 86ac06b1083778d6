(* Tests for the traffic subsystem: workload grammar, validation, and the
   load scheduler's end-to-end guarantees (safety subset, contention
   accounting, fault classification, determinism). *)

open Traffic

let qcheck = QCheck_alcotest.to_alcotest

(* ----------------------------- workload ------------------------------- *)

let wl_gen =
  QCheck.Gen.(
    let arrival =
      oneof
        [
          map (fun g -> Workload.Poisson { gap = 1 + g }) (int_bound 200);
          map2
            (fun c t -> Workload.Closed { clients = 1 + c; think = t })
            (int_bound 20) (int_bound 100);
          map2
            (fun s e -> Workload.Burst { size = 1 + s; every = 1 + e })
            (int_bound 10) (int_bound 200);
          map2
            (fun hi lo ->
              Workload.Ramp { gap_hi = 1 + lo + hi; gap_lo = 1 + lo })
            (int_bound 100) (int_bound 100);
        ]
    in
    let proto =
      oneofl
        Workload.[ Sync; Naive; Htlc; Weak_single; Committee; Atomic ]
    in
    let mix =
      map
        (fun l ->
          (* dedup by protocol; grammar keys mixes by name *)
          List.fold_left
            (fun acc (p, w) ->
              if List.mem_assoc p acc then acc else (p, w) :: acc)
            [] l
          |> List.rev)
        (list_size (int_range 1 4) (pair proto (int_range 1 9)))
    in
    let policy = oneofl Workload.[ Reserve; Optimistic ] in
    let* payments = int_bound 500 in
    let* hops = int_bound 3 in
    let* value = int_bound 1000 in
    let* commission = int_bound 20 in
    let* arrival = arrival in
    let* mix = mix in
    let* policy = policy in
    (* of_string validates: optimistic is illegal with sync/naive in the mix *)
    let policy =
      if
        List.mem_assoc Workload.Sync mix
        || List.mem_assoc Workload.Naive mix
      then Workload.Reserve
      else policy
    in
    let* cap = int_bound 64 in
    let* liq = int_bound 8 in
    let+ pat = int_bound 5000 in
    {
      Workload.payments = 1 + payments;
      hops = 1 + hops;
      value = 100 + value;
      commission = 1 + commission;
      arrival;
      mix;
      policy;
      cap;
      liquidity = liq;
      patience = 1 + pat;
      stuck_after = 0;
      drift_ppm = 0;
      gst = None;
      topology = None;
      route = Routing.Router.Shortest;
      splits = 1;
      committee = None;
    })

let wl_arb =
  QCheck.make ~print:(fun w -> Workload.to_string w) wl_gen

(* the workload a bare [payments=N] spec gives: the grammar's defaults *)
let default_workload payments =
  match Workload.of_string (Printf.sprintf "payments=%d" payments) with
  | Ok w -> w
  | Error e -> Alcotest.fail e

let arrivals w ~seed = Option.map Array.of_seq (Workload.arrival_seq w ~seed)

let workload_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"grammar round-trips" ~count:500 wl_arb
         (fun w ->
           match Workload.of_string (Workload.to_string w) with
           | Ok w' -> w' = w
           | Error e -> QCheck.Test.fail_reportf "no parse: %s" e));
    Alcotest.test_case "default spec round-trips" `Quick (fun () ->
        let w = default_workload 100 in
        match Workload.of_string (Workload.to_string w) with
        | Ok w' -> Alcotest.(check bool) "equal" true (w = w')
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "parse errors name the offending key" `Quick
      (fun () ->
        let base = Workload.to_string (default_workload 10) in
        let broken key bad =
          (* swap one key's value for garbage inside an otherwise-valid
             spec; the error must say which key refused it *)
          String.split_on_char ' ' base
          |> List.map (fun kv ->
                 match String.index_opt kv '=' with
                 | Some i when String.sub kv 0 i = key -> key ^ "=" ^ bad
                 | _ -> kv)
          |> String.concat " "
        in
        List.iter
          (fun (key, bad) ->
            match Workload.of_string (broken key bad) with
            | Ok _ -> Alcotest.failf "%s=%s should not parse" key bad
            | Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%S names %s" e key)
                  true
                  (String.length e >= String.length key
                  && String.sub e 0 (String.length key) = key))
          [
            ("arrival", "fibonacci:3");
            ("mix", "sync:0");
            ("mix", "sync:1,weak:1,sync:2");
            ("policy", "yolo");
            ("payments", "many");
          ];
        (* committee specs that parse but cannot build a valid quorum
           system: a non-square grid, and a majority whose 2f+1 quorum
           outnumbers its replicas *)
        List.iter
          (fun c ->
            match
              Workload.of_string (broken "mix" "shared" ^ " committee=" ^ c)
            with
            | Ok _ -> Alcotest.failf "committee=%s should not parse" c
            | Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%S names committee" e)
                  true
                  (String.length e >= 9 && String.sub e 0 9 = "committee"))
          [ "grid:5:1:8:4"; "majority:4:2:8:4" ];
        match
          Workload.of_string (base ^ " topology=graph:9;nonsense route=warp")
        with
        | Ok _ -> Alcotest.fail "bad topology accepted"
        | Error e ->
            Alcotest.(check bool) "topology error is keyed" true
              (String.length e >= 8 && String.sub e 0 8 = "topology"));
    Alcotest.test_case "hops is bounded by the longest graph path" `Quick
      (fun () ->
        let spec hops = Printf.sprintf "payments=1 hops=%d" hops in
        Alcotest.(check bool) "hops=999 parses" true
          (Result.is_ok (Workload.of_string (spec 999)));
        match Workload.of_string (spec 1000) with
        | Ok _ -> Alcotest.fail "hops=1000 accepted"
        | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%S names hops" e)
              true
              (String.length e >= 4 && String.sub e 0 4 = "hops"));
    Alcotest.test_case "optimistic forbids sync and naive" `Quick (fun () ->
        let w =
          {
            (default_workload 10) with
            policy = Workload.Optimistic;
            mix = [ (Workload.Sync, 1) ];
          }
        in
        (match Workload.validate w with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "optimistic+sync accepted");
        let w = { w with mix = [ (Workload.Naive, 1) ] } in
        match Workload.validate w with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "optimistic+naive accepted");
    Alcotest.test_case "naive requires zero drift" `Quick (fun () ->
        let w =
          {
            (default_workload 10) with
            mix = [ (Workload.Naive, 1) ];
            drift_ppm = 500;
          }
        in
        (match Workload.validate w with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "naive with drift accepted");
        match Workload.validate { w with drift_ppm = 0 } with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "arrivals are monotone and deterministic" `Quick
      (fun () ->
        let w =
          {
            (default_workload 200) with
            arrival = Workload.Ramp { gap_hi = 80; gap_lo = 5 };
          }
        in
        match (arrivals w ~seed:7, arrivals w ~seed:7) with
        | Some a, Some b ->
            Alcotest.(check bool) "same seed, same ticks" true (a = b);
            Array.iteri
              (fun i t ->
                if i > 0 && t < a.(i - 1) then
                  Alcotest.fail "arrival ticks not monotone")
              a
        | _ -> Alcotest.fail "open-loop arrivals expected");
    Alcotest.test_case "closed loop has no precomputed arrivals" `Quick
      (fun () ->
        let w =
          {
            (default_workload 50) with
            arrival = Workload.Closed { clients = 4; think = 10 };
          }
        in
        match arrivals w ~seed:1 with
        | None -> ()
        | Some _ -> Alcotest.fail "closed loop should settle-drive arrivals");
    qcheck
      (QCheck.Test.make ~name:"assign_mix draws only from the mix" ~count:100
         wl_arb (fun w ->
           let assigned = Workload.assign_mix w ~seed:13 in
           Array.length assigned = w.Workload.payments
           && Array.for_all
                (fun p -> List.mem_assoc p w.Workload.mix)
                assigned));
  ]

(* ------------------------------- tally --------------------------------- *)

(* A tally fed one payment per entry: [(assigned, outcome, latency)], the
   payment index being the entry's position. *)
let tally_of_entries entries =
  let t = Tally.create () in
  List.iter
    (fun (k, (assigned, o, latency)) ->
      if assigned then Tally.assign t;
      if o = Tally.Committed then Tally.commit t ~payment:k ~latency
      else Tally.add t o)
    entries;
  t

let entry_gen =
  QCheck.Gen.(triple bool (oneofl Tally.outcomes) (int_bound 5000))

(* everything a report or its telemetry reads from a tally *)
let tally_view t =
  ( Tally.assigned t,
    List.map (Tally.count t) Tally.outcomes,
    Tally.first_commit t,
    Tally.latencies t,
    List.map (Tally.percentile t) [ 50; 95; 99; 100 ] )

let tally_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"percentiles are nearest ranks of the sample"
         ~count:500
         QCheck.(list_of_size Gen.(int_bound 300) (int_bound 5000))
         (fun lats ->
           let t =
             tally_of_entries
               (List.mapi (fun k l -> (k, (true, Tally.Committed, l))) lats)
           in
           let sorted = Array.of_list (List.sort compare lats) in
           let n = Array.length sorted in
           let rank q =
             if n = 0 then 0
             else sorted.(max 0 (min (n - 1) ((((q * n) + 99) / 100) - 1)))
           in
           List.for_all
             (fun q -> Tally.percentile t q = rank q)
             [ 50; 95; 99; 100 ]
           && Tally.percentile t 100 = (if n = 0 then 0 else sorted.(n - 1))));
    qcheck
      (QCheck.Test.make ~name:"merging a split sample's tallies is its tally"
         ~count:500
         (QCheck.make
            QCheck.Gen.(list_size (int_bound 200) (pair bool entry_gen)))
         (fun sample ->
           let indexed = List.mapi (fun k x -> (k, x)) sample in
           let side b =
             List.filter_map
               (fun (k, (s, e)) -> if s = b then Some (k, e) else None)
               indexed
           in
           let entries = List.map (fun (k, (_, e)) -> (k, e)) indexed in
           tally_view
             (Tally.merge (tally_of_entries (side true))
                (tally_of_entries (side false)))
           = tally_view (tally_of_entries entries)));
  ]

(* ------------------------------- load ---------------------------------- *)

let spec s =
  match Workload.of_string s with
  | Ok w -> w
  | Error e -> Alcotest.fail ("bad spec: " ^ e)

(* The raw text of a field of a span's JSONL row, up to the next comma:
   the rows are flat up to their attrs. *)
let span_field row key =
  let k = Printf.sprintf {|"%s":|} key in
  let rec find i =
    if String.sub row i (String.length k) = k then i + String.length k
    else find (i + 1)
  in
  let v = find 0 in
  String.sub row v (String.index_from row v ',' - v)

(* The payment spans one run exports, as JSONL rows, beside its report. *)
let payment_spans run =
  let spans = Obsv.Span.default in
  Obsv.Span.clear spans;
  Obsv.Span.set_capture spans true;
  let r = run () in
  Obsv.Span.set_capture spans false;
  let rows =
    String.split_on_char '\n' (Obsv.Span.to_jsonl spans)
    |> List.filter (fun row -> row <> "" && span_field row "name" = {|"payment"|})
  in
  Obsv.Span.clear spans;
  (r, rows)

let no_violations r =
  Alcotest.(check int) "violated" 0 r.Load.violated;
  Alcotest.(check (list string)) "violations" []
    (List.map
       (fun v -> Printf.sprintf "%d/%s: %s" v.Load.payment v.property v.detail)
       r.Load.violations);
  Alcotest.(check bool) "conservation" true r.Load.conservation_ok

let stripped r =
  let j = Load.to_json r in
  let cut = ",\"timing\":" in
  let n = String.length cut in
  let rec find i =
    if i + n > String.length j then j
    else if String.sub j i n = cut then String.sub j 0 i
    else find (i + 1)
  in
  find 0

(* the benchmark's linear_2k spec at 200 payments *)
let linear_200_spec =
  "hops=2 value=1000 commission=10 cap=0 stuck=0 gst=none payments=200 \
   arrival=poisson:4 mix=sync:2,weak:2,htlc:1,atomic:1 policy=reserve \
   liquidity=0 patience=2000 drift=10000"

let load_tests =
  [
    Alcotest.test_case "mixed open-loop run commits everything" `Slow
      (fun () ->
        let w =
          spec
            "payments=40 hops=2 value=1000 commission=10 arrival=poisson:30 \
             mix=sync:2,weak:2,htlc:1,atomic:1 policy=reserve cap=0 \
             liquidity=0 patience=2000 stuck=0 drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:3 () in
        no_violations r;
        Alcotest.(check int) "committed" 40 r.Load.committed;
        Alcotest.(check int) "rejected" 0 r.Load.rejected;
        Alcotest.(check bool) "latency measured" true (r.Load.latency_p50 > 0);
        Alcotest.(check bool) "throughput measured" true
          (r.Load.throughput_cpm > 0);
        let assigned = List.fold_left (fun a (_, n, _) -> a + n) 0 r.Load.by_protocol in
        Alcotest.(check int) "by_protocol covers all payments" 40 assigned);
    Alcotest.test_case "committee payments multiplex too" `Slow (fun () ->
        let w =
          spec
            "payments=12 hops=2 value=1000 commission=10 arrival=burst:4:200 \
             mix=committee policy=reserve cap=0 liquidity=0 patience=3000 \
             stuck=0 drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:5 () in
        no_violations r;
        Alcotest.(check int) "committed" 12 r.Load.committed);
    Alcotest.test_case "closed loop under scarce liquidity rejects, never \
                        violates" `Slow (fun () ->
        let w =
          spec
            "payments=60 hops=2 value=1000 commission=10 arrival=closed:6:5 \
             mix=weak policy=reserve cap=0 liquidity=3 patience=400 stuck=0 \
             drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:11 () in
        no_violations r;
        Alcotest.(check bool) "liquidity bites: some payments rejected" true
          (r.Load.rejected > 0);
        Alcotest.(check bool) "the funded prefix still commits" true
          (r.Load.committed >= 3);
        Alcotest.(check int) "everything is accounted for"
          w.Workload.payments
          (r.Load.committed + r.Load.aborted + r.Load.rejected + r.Load.stuck
         + r.Load.violated));
    Alcotest.test_case "optimistic policy surfaces deposit races safely"
      `Slow (fun () ->
        let w =
          spec
            "payments=30 hops=2 value=1000 commission=10 arrival=burst:30:1 \
             mix=weak policy=optimistic cap=0 liquidity=5 patience=200 \
             stuck=0 drift=10000 gst=none"
        in
        let r = Load.run ~workload:w ~seed:2 () in
        no_violations r;
        Alcotest.(check bool) "losers hit Insufficient_funds in-protocol" true
          (r.Load.liquidity_rejections > 0));
    Alcotest.test_case "a crashed escrow leaves its payments stuck, never \
                        unsafe" `Slow (fun () ->
        (* host pid 4 is e1's contract process in a 2-hop block; crashing it
           mid-run wedges unsettled payments without violating safety *)
        let w =
          spec
            "payments=20 hops=2 value=1000 commission=10 arrival=poisson:50 \
             mix=weak policy=reserve cap=0 liquidity=0 patience=2000 \
             stuck=0 drift=10000 gst=none"
        in
        let plan =
          match Faults.Fault_plan.of_string "crash 4@1500" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let r = Load.run ~plan ~workload:w ~seed:9 () in
        no_violations r;
        Alcotest.(check bool) "some payments wedge" true (r.Load.stuck > 0);
        Alcotest.(check bool) "pre-crash payments commit" true
          (r.Load.committed > 0));
    Alcotest.test_case "a healed crash only delays" `Slow (fun () ->
        let w =
          spec
            "payments=15 hops=2 value=1000 commission=10 arrival=poisson:40 \
             mix=weak policy=reserve cap=0 liquidity=0 patience=2000 \
             stuck=0 drift=10000 gst=none"
        in
        let plan =
          match Faults.Fault_plan.of_string "crash 3@1000+2000" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let r = Load.run ~plan ~workload:w ~seed:9 () in
        no_violations r;
        Alcotest.(check int) "all commit after the heal" 15 r.Load.committed);
    Alcotest.test_case "reports are bit-identical across reruns" `Slow
      (fun () ->
        let w =
          spec
            "payments=25 hops=3 value=900 commission=15 arrival=ramp:60:10 \
             mix=sync:1,htlc:1,atomic:1 policy=reserve cap=8 liquidity=0 \
             patience=2500 stuck=0 drift=10000 gst=none"
        in
        (* Pin the host-measured cost so the whole report, timing block
           included, must match byte-for-byte. *)
        let norm r = Load.to_json { r with Load.cost = Fleet.no_cost } in
        let a = norm (Load.run ~workload:w ~seed:21 ()) in
        let b = norm (Load.run ~workload:w ~seed:21 ()) in
        Alcotest.(check string) "same seed, same bytes" a b;
        let c = norm (Load.run ~workload:w ~seed:22 ()) in
        Alcotest.(check bool) "different seed, different run" true (a <> c));
    Alcotest.test_case "shared committees serve graph workloads" `Slow
      (fun () ->
        (* the committee's verdict items are instances, so splits over
           paths of different lengths each get their own hop count *)
        List.iter
          (fun (graph, committed) ->
            let w =
              spec
                ("payments=40 hops=2 value=1000 commission=10 \
                  arrival=poisson:30 mix=shared,weak policy=reserve cap=0 \
                  liquidity=0 patience=100000 stuck=0 drift=0 gst=none \
                  committee=majority:4:1:8:4 " ^ graph)
            in
            let r = Load.run ~workload:w ~seed:4 () in
            no_violations r;
            Alcotest.(check int) (graph ^ ": committed") committed
              r.Load.committed;
            Alcotest.(check bool) (graph ^ ": committee certified") true
              (match r.Load.committee_stats with
              | Some c -> c.Load.verdicts > 0
              | None -> false);
            Alcotest.(check string) (graph ^ ": rerun is identical")
              (stripped r)
              (stripped (Load.run ~workload:w ~seed:4 ())))
          [
            ("topology=hub:3:3000:5 splits=2", 2);
            ("topology=er:6:4:9 route=round-robin splits=3", 40);
          ]);
    Alcotest.test_case "run rejects an invalid workload" `Quick (fun () ->
        let w =
          {
            (default_workload 5) with
            policy = Workload.Optimistic;
            mix = [ (Workload.Sync, 1) ];
          }
        in
        match Load.run ~workload:w ~seed:1 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "invalid workload accepted");
    Alcotest.test_case "a run ends before its last patience deadline" `Slow
      (fun () ->
        (* every payment settles or gives up within [patience] of its
           arrival; a cancelled controller timer must not hold the engine
           to its deadline *)
        let w = spec linear_200_spec in
        let last_arrival =
          match Workload.arrival_seq w ~seed:1 with
          | Some s -> Seq.fold_left (fun _ t -> t) 0 s
          | None -> Alcotest.fail "open-loop arrivals expected"
        in
        let r = Load.run ~workload:w ~seed:1 () in
        Alcotest.(check int) "committed" 200 r.Load.committed;
        if r.Load.makespan >= last_arrival + w.Workload.patience then
          Alcotest.failf "makespan %d, last arrival %d" r.Load.makespan
            last_arrival);
  ]

(* --------------------------- causal tracing ---------------------------- *)

module Causal = Obsv.Causal
module Blame = Obsv.Blame

let causal_spec =
  "payments=15 hops=2 value=1000 commission=10 arrival=poisson:40 mix=sync \
   policy=reserve cap=0 liquidity=0 patience=2000 stuck=0 drift=10000 \
   gst=none"

(* structural well-formedness of a recorded load graph: what the engine
   promises regardless of faults *)
let check_graph c =
  for id = 0 to Causal.node_count c - 1 do
    let preds = Causal.preds c id in
    List.iter
      (fun (_, src) ->
        if src < 0 || src >= id then
          Alcotest.failf "node %d has dangling pred %d" id src;
        if Causal.time_of c src > Causal.time_of c id then
          Alcotest.failf "edge %d->%d goes back in time" src id)
      preds;
    (* every deliver descends from exactly one send: down-drops and stale
       firings record no node, so no deliver can be orphaned or doubled *)
    match Causal.kind_of c id with
    | Causal.Deliver ->
        let msgs =
          List.filter (fun (k, _) -> k = Causal.Message) preds
        in
        (match msgs with
        | [ (_, src) ] ->
            if Causal.kind_of c src <> Causal.Send then
              Alcotest.failf "deliver %d descends from a non-send" id
        | _ ->
            Alcotest.failf "deliver %d has %d message preds" id
              (List.length msgs))
    | Causal.Timer_fire ->
        (match List.filter (fun (k, _) -> k = Causal.Timer) preds with
        | [ (_, src) ] ->
            if Causal.kind_of c src <> Causal.Timer_set then
              Alcotest.failf "fire %d descends from a non-arm" id
        | _ -> Alcotest.failf "fire %d lacks a timer pred" id)
    | _ -> ()
  done

let causal_tests =
  [
    Alcotest.test_case "blame totals are the commit latencies" `Slow (fun () ->
        let w = spec causal_spec in
        let c = Causal.create () in
        let r = Load.run ~causal:c ~workload:w ~seed:6 () in
        no_violations r;
        Alcotest.(check int) "every committed payment has a report"
          r.Load.committed
          (List.length r.Load.blame_reports);
        List.iter
          (fun (k, b) ->
            Alcotest.(check int) "report tagged with its payment" k
              b.Blame.trace;
            Alcotest.(check bool) "gaps sum exactly to the latency" true
              (Blame.check b);
            Alcotest.(check bool) "critical path is a real DAG path" true
              (Causal_path.valid c b.Blame.path);
            Alcotest.(check bool) "rooted at the arrival" true b.Blame.rooted)
          r.Load.blame_reports;
        let slowest =
          List.fold_left (fun m (_, b) -> max m b.Blame.total) 0
            r.Load.blame_reports
        in
        Alcotest.(check int) "slowest critical path = latency_max"
          r.Load.latency_max slowest;
        match r.Load.blame with
        | None -> Alcotest.fail "aggregate missing on a traced run"
        | Some a ->
            Alcotest.(check int) "aggregate covers every commit"
              r.Load.committed a.Blame.payments);
    Alcotest.test_case "tracing adds nodes, never events" `Slow (fun () ->
        let w = spec causal_spec in
        let plain = Load.run ~workload:w ~seed:6 () in
        let traced =
          Load.run ~causal:(Causal.create ()) ~workload:w ~seed:6 ()
        in
        Alcotest.(check string) "identical reports modulo blame"
          (Load.to_json { plain with Load.cost = Fleet.no_cost })
          (Load.to_json
             { traced with Load.blame = None; cost = Fleet.no_cost }));
    Alcotest.test_case "chrome export is byte-identical across reruns" `Slow
      (fun () ->
        let w = spec causal_spec in
        let once () =
          let c = Causal.create () in
          ignore (Load.run ~causal:c ~workload:w ~seed:13 ());
          (Causal.to_chrome c, Causal.to_jsonl c)
        in
        let a_chrome, a_dag = once () and b_chrome, b_dag = once () in
        Alcotest.(check string) "chrome bytes" a_chrome b_chrome;
        Alcotest.(check string) "dag bytes" a_dag b_dag);
    qcheck
      (QCheck.Test.make ~name:"graphs stay well-formed under random faults"
         ~count:12
         QCheck.(int_bound 999)
         (fun seed ->
           let w = spec causal_spec in
           (* same derivation as the chaos soak: plan from the seed alone,
              addressed at the block's host pids (stride 5 at 2 hops) *)
           let prng = Sim.Rng.create ~seed:(seed + 7919) in
           let plan = Faults.Fault_plan.random prng ~nprocs:5 ~horizon:4000 in
           let c = Causal.create () in
           let r = Load.run ~causal:c ~plan ~workload:w ~seed () in
           check_graph c;
           List.iter
             (fun (_, b) ->
               if not (Blame.check b) then
                 QCheck.Test.fail_reportf "inexact blame under %s"
                   (Faults.Fault_plan.to_string plan);
               if not (Causal_path.valid c b.Blame.path) then
                 QCheck.Test.fail_reportf "broken path under %s"
                   (Faults.Fault_plan.to_string plan))
             r.Load.blame_reports;
           true));
    Alcotest.test_case "stuck payments export stuck spans, never running"
      `Slow (fun () ->
        let w =
          spec
            "payments=20 hops=2 value=1000 commission=10 arrival=poisson:50 \
             mix=weak policy=reserve cap=0 liquidity=0 patience=2000 stuck=0 \
             drift=10000 gst=none"
        in
        let plan =
          match Faults.Fault_plan.of_string "crash 4@1500" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let r, payment_spans =
          payment_spans (fun () -> Load.run ~plan ~workload:w ~seed:9 ())
        in
        Alcotest.(check bool) "scenario wedges payments" true (r.Load.stuck > 0);
        Alcotest.(check int) "a span per payment" w.Workload.payments
          (List.length payment_spans);
        let stuck_spans =
          List.filter (fun s -> span_field s "status" = {|"stuck"|}) payment_spans
        in
        Alcotest.(check int) "stuck spans match the count" r.Load.stuck
          (List.length stuck_spans);
        List.iter
          (fun s ->
            if span_field s "status" = {|"running"|} then
              Alcotest.failf "span %s exported running" (span_field s "id");
            match int_of_string_opt (span_field s "end") with
            | Some e when e >= int_of_string (span_field s "start") -> ()
            | _ -> Alcotest.failf "span %s open-ended" (span_field s "id"))
          payment_spans);
    Alcotest.test_case "a rejected payment's span ends at its patience"
      `Quick (fun () ->
        (* a hub too thin for the offered load: most payments wait out
           their patience in the admission queue *)
        let w =
          spec
            "payments=20 hops=2 value=1000 commission=10 arrival=poisson:30 \
             mix=sync:1,weak:1 policy=reserve cap=0 liquidity=0 \
             patience=2000 stuck=0 drift=0 gst=none topology=hub:3:3000:5 \
             splits=2"
        in
        let r, payment_spans =
          payment_spans (fun () -> Load.run ~workload:w ~seed:4 ())
        in
        let rejected =
          List.filter
            (fun s -> span_field s "status" = {|"rejected"|})
            payment_spans
        in
        Alcotest.(check int) "a span per rejection" r.Load.rejected
          (List.length rejected);
        Alcotest.(check bool) "scenario rejects payments" true
          (rejected <> []);
        List.iter
          (fun s ->
            Alcotest.(check int)
              ("span " ^ span_field s "id" ^ " ends at its patience")
              (int_of_string (span_field s "start") + w.Workload.patience)
              (int_of_string (span_field s "end")))
          rejected);
  ]

(* ---------------------------- golden pins ------------------------------ *)

(* Digests of whole reports, timing block cut off, for runs that between
   them cover every outcome path of the scheduler: both admission
   policies, closed-loop re-arrival, host crashes, the shared committee,
   graph routing with splits, and causal blame. Any change to a pinned
   digest is a change to what [xchain load] reports. *)

let plan_of s =
  match Faults.Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let line rest =
  "hops=2 value=1000 commission=10 cap=0 stuck=0 gst=none " ^ rest

let shared_outage_spec =
  "payments=30 arrival=poisson:20 mix=shared policy=reserve liquidity=0 \
   patience=300 drift=10000 committee=majority:4:1:8:4"

let committee_600_spec =
  "payments=600 hops=2 value=1000 commission=10 arrival=poisson:4 \
   mix=shared policy=reserve cap=0 liquidity=0 patience=100000 stuck=0 \
   drift=0 gst=none committee=majority:16:5:32:4"

let golden_runs =
  [
    ( "linear_2k spec at 200 payments",
      "5b18de8cc5167c680cdbf93cc2d085c4",
      fun () ->
        Load.run ~workload:(spec linear_200_spec) ~seed:1 () );
    ( "optimistic under scarce liquidity",
      "40ed888efe801380255fdc0ba1ffc353",
      fun () ->
        Load.run
          ~workload:
            (spec
               (line
                  "payments=30 arrival=burst:30:1 mix=weak policy=optimistic \
                   liquidity=5 patience=200 drift=10000"))
          ~seed:2 () );
    ( "closed loop under scarce liquidity",
      "5f68aebf4ea771872dbfdf146ec2a386",
      fun () ->
        Load.run
          ~workload:
            (spec
               (line
                  "payments=40 arrival=closed:2:10 mix=weak policy=reserve \
                   liquidity=2 patience=300 drift=10000"))
          ~seed:11 () );
    ( "crashed escrow host",
      "2dbbe0275b65a47abe24daa33c161545",
      fun () ->
        Load.run ~plan:(plan_of "crash 4@1500")
          ~workload:
            (spec
               (line
                  "payments=20 arrival=poisson:50 mix=weak policy=reserve \
                   liquidity=0 patience=2000 drift=10000"))
          ~seed:9 () );
    ( "shared committee",
      "e8671edd42543e2a2fb54aae59e2f91d",
      fun () ->
        Load.run
          ~workload:
            (spec
               (line
                  "payments=40 arrival=poisson:20 mix=shared policy=reserve \
                   liquidity=0 patience=100000 drift=0 \
                   committee=majority:4:1:8:4"))
          ~seed:3 () );
    (* Chloe1's outage holds her deposit past her peers' patience, so most
       payments abort through the committee; an escrow outage leaves half
       of them stuck *)
    ( "shared committee, chloe1 outage",
      "9d56a8d8f33ed09db736bb4cabee4696",
      fun () ->
        Load.run ~plan:(plan_of "crash 1@100+6000")
          ~workload:(spec (line shared_outage_spec)) ~seed:5 () );
    ( "shared committee, escrow outage",
      "e75706e164572d070a3b154059b92618",
      fun () ->
        Load.run ~plan:(plan_of "crash 3@200+300")
          ~workload:(spec (line shared_outage_spec)) ~seed:5 () );
    (* the benchmark's committee_600 spec and a routed mix beside weak:
       what a committee replica keeps between slots never shows here *)
    ( "committee_600 spec, seed 1",
      "35a7c4f8683576840ac0133cf14c5079",
      fun () -> Load.run ~workload:(spec committee_600_spec) ~seed:1 () );
    ( "committee_600 spec, seed 2",
      "4999e3502d22f8b8ee68fc76b329d475",
      fun () -> Load.run ~workload:(spec committee_600_spec) ~seed:2 () );
    ( "er graph, shared and weak, three splits",
      "55c6e04a5c1c174f4dc072aef4d5e94e",
      fun () ->
        Load.run
          ~workload:
            (spec
               "payments=40 mix=shared,weak committee=majority:4:1:8:4 \
                topology=er:6:4:9 splits=3")
          ~seed:1 () );
    ( "hub graph, two splits",
      "062166750a22f4369d5f8be2dd878b6d",
      fun () ->
        Load.run
          ~workload:
            (spec
               (line
                  "payments=40 arrival=poisson:30 mix=sync:1,weak:1 \
                   policy=reserve liquidity=0 patience=2000 drift=10000 \
                   topology=hub:3:3000:5 splits=2"))
          ~seed:4 () );
    ( "er graph, round-robin, crashed host",
      "a33ae0619fc03cba493250e0b9578f01",
      fun () ->
        Load.run ~plan:(plan_of "crash 2@700")
          ~workload:
            (spec
               (line
                  "payments=60 arrival=poisson:20 \
                   mix=sync:1,weak:1,htlc:1,atomic:1 policy=reserve \
                   liquidity=0 patience=2000 drift=10000 topology=er:6:4:9 \
                   route=round-robin splits=3"))
          ~seed:5 () );
    (* shortest-path fill drains bottleneck edges to exactly zero, so the
       set of usable edges shrinks mid-run and most payments find no
       route *)
    ( "er graph, edges run dry",
      "dba134a1fcce2a56c69607b4a208ba8d",
      fun () ->
        Load.run
          ~workload:
            (spec
               (line
                  "payments=60 arrival=poisson:20 mix=sync:1,weak:1 \
                   policy=reserve liquidity=0 patience=2000 drift=10000 \
                   topology=er:6:4:9:2500:0 route=shortest splits=3"))
          ~seed:7 () );
    ( "causally traced linear run",
      "b21f3b634bd703a8b6b38c77a3efbbee",
      fun () ->
        Load.run ~causal:(Causal.create ()) ~workload:(spec causal_spec)
          ~seed:6 () );
  ]

(* Per-site dispatch counts of a profiled run, keyed by payment, role
   label and event kind: pins which process carries which label. *)
let profile_frames ~workload ~seed =
  let prof =
    Obsv.Prof.create ~now_ns:(fun () -> 0) ~metrics:(Obsv.Metrics.create ()) ()
  in
  ignore (Load.run ~prof ~causal:(Causal.create ()) ~workload ~seed ());
  String.concat "\n"
    (List.map
       (fun s ->
         Printf.sprintf "%d;%s;%s %d" s.Obsv.Prof.s_trace s.Obsv.Prof.s_label
           (Obsv.Prof.kind_name s.Obsv.Prof.s_kind)
           s.Obsv.Prof.s_count)
       (Obsv.Prof.sites prof))

let golden_tests =
  List.map
    (fun (name, digest, run) ->
      Alcotest.test_case name `Slow (fun () ->
          Alcotest.(check string)
            "stripped report digest" digest
            (Digest.to_hex (Digest.string (stripped (run ()))))))
    golden_runs
  @ [
      Alcotest.test_case "profile frames: linear and routed" `Slow (fun () ->
          let digest w seed =
            Digest.to_hex (Digest.string (profile_frames ~workload:w ~seed))
          in
          Alcotest.(check string) "linear" "03d4ac84c3b4ec15ea0ca1fa9c5e2359"
            (digest (spec causal_spec) 6);
          Alcotest.(check string) "routed" "c8afd9d8838cc32a378b06a6b5d839ce"
            (digest
               (spec
                  (line
                     "payments=20 arrival=poisson:30 mix=sync:1,weak:1 \
                      policy=reserve liquidity=0 patience=2000 drift=10000 \
                      topology=hub:3:3000:5 splits=2"))
               4));
    ]

(* Digests of the happens-before graph itself, both exporters, for a
   fault-free load run, a load run whose crashed host defers three firings
   past its reboot (outage edges), and a single Runner payment through
   Chaos with one deferred firing. *)
let dag_runs =
  [
    ( "causally traced linear run",
      ("18fa11a4c10cfcf6fa604159c8731e03", "0ed981566be5b29b226c9d9220d06f79"),
      fun c ->
        ignore (Load.run ~causal:c ~workload:(spec causal_spec) ~seed:6 ()) );
    ( "crash-recover load run",
      ("3e1f4855f278e6deee847737c30d562e", "507caa314bc4964e604bd40522e7ee23"),
      fun c ->
        ignore
          (Load.run ~causal:c ~plan:(plan_of "crash 3@600+3000")
             ~workload:
               (spec
                  (line
                     "payments=20 arrival=poisson:50 mix=sync:1,weak:1,htlc:1 \
                      policy=reserve liquidity=0 patience=2000 drift=10000"))
             ~seed:1 ()) );
    ( "crash-recover chaos run",
      ("f87136adeae7d0501adf16ec1abe6e2f", "ccf7bd2ae0803115c9d09b1938707419"),
      fun c ->
        ignore
          (Xchain.Chaos.run_one ~hops:2 ~causal:c
             ~plan:(plan_of "crash 3@150+2000") ~seed:3 ()) );
  ]

let dag_tests =
  List.map
    (fun (name, (dag, chrome), run) ->
      Alcotest.test_case name `Slow (fun () ->
          let c = Causal.create () in
          run c;
          let hex s = Digest.to_hex (Digest.string s) in
          Alcotest.(check string) "dag digest" dag (hex (Causal.to_jsonl c));
          Alcotest.(check string) "chrome digest" chrome
            (hex (Causal.to_chrome c))))
    dag_runs

(* ------------------------- differential oracle ------------------------- *)

(* A linear workload and the same workload routed over [linear:H] (one
   path, unbounded edges, the same commission) run the same payments over
   the same pids, envs, clocks and fault plan, so every outcome and timing
   figure of the two reports must agree. *)
let oracle_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 9999 in
    let* hops = int_range 1 3 in
    let* payments = int_range 1 25 in
    let* mix =
      map
        (fun l -> List.sort_uniq compare l)
        (list_size (int_range 1 3)
           (oneofl [ "sync"; "weak"; "htlc"; "atomic"; "committee" ]))
    in
    let* arrival =
      oneof
        [
          map (Printf.sprintf "poisson:%d") (int_range 1 80);
          map2 (Printf.sprintf "closed:%d:%d") (int_range 1 4) (int_bound 30);
          map2 (Printf.sprintf "burst:%d:%d") (int_range 1 6) (int_range 1 200);
        ]
    in
    let* cap = int_bound 4 in
    let* crash =
      oneof
        [
          return "";
          map3
            (fun pid at dur ->
              Printf.sprintf "crash %d@%d%s" pid at
                (if dur = 0 then "" else Printf.sprintf "+%d" dur))
            (int_bound (2 * hops))
            (int_range 1 3000) (int_bound 2000);
        ]
    in
    return
      ( seed,
        Printf.sprintf
          "payments=%d hops=%d value=1000 commission=7 arrival=%s mix=%s \
           policy=reserve cap=%d liquidity=0 patience=2000 stuck=0 \
           drift=10000 gst=none"
          payments hops arrival (String.concat "," mix) cap,
        hops,
        crash ))

let oracle_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"linear agrees with linear:H routing" ~count:100
         (QCheck.make
            ~print:(fun (seed, s, _, crash) ->
              Printf.sprintf "seed %d, %s, plan %S" seed s crash)
            oracle_case_gen)
         (fun (seed, s, hops, crash) ->
           let plan =
             if crash = "" then Faults.Fault_plan.none else plan_of crash
           in
           let lin = Load.run ~plan ~workload:(spec s) ~seed () in
           let routed =
             Load.run ~plan
               ~workload:
                 (spec (Printf.sprintf "%s topology=linear:%d:0:7" s hops))
               ~seed ()
           in
           let figures (r : Load.report) =
             [
               r.committed; r.aborted; r.rejected; r.stuck; r.violated;
               r.latency_p50; r.latency_p95; r.latency_p99; r.latency_max;
               r.makespan; r.messages; r.events;
             ]
           in
           figures lin = figures routed
           || QCheck.Test.fail_reportf
                "linear %s\nrouted %s" (stripped lin) (stripped routed)));
  ]

let workload_seeds =
  [
    "payments=200 hops=2 value=1000 commission=10 arrival=poisson:4 \
     mix=sync:2,weak:2,htlc:1,atomic:1 policy=reserve cap=0 liquidity=0 \
     patience=2000 stuck=0 drift=10000 gst=none";
    "payments=40 arrival=closed:2:10 mix=weak policy=optimistic liquidity=2 \
     gst=300";
    "payments=600 mix=shared committee=majority:16:5:32:4 arrival=burst:30:1";
    "payments=100 mix=sync:1,weak:1 topology=er:6:4:9 route=round-robin \
     splits=3 arrival=ramp:60:10";
  ]

(* A valid spec with the value of one key damaged parses, or fails with
   an error that starts with that key: a bad value in a long spec line
   points at itself. *)
let keyed_error_property =
  let keys =
    [ "payments"; "hops"; "value"; "commission"; "arrival"; "mix"; "policy";
      "cap"; "liquidity"; "patience"; "stuck"; "drift"; "gst"; "committee";
      "topology"; "splits" ]
  in
  let key_of field =
    match String.index_opt field '=' with
    | Some i -> String.sub field 0 i
    | None -> field
  in
  let gen =
    let open QCheck.Gen in
    let* spec = oneofl workload_seeds in
    let fields = String.split_on_char ' ' spec in
    let* i =
      oneofl
        (List.concat
           (List.mapi
              (fun i f -> if List.mem (key_of f) keys then [ i ] else [])
              fields))
    in
    let field = List.nth fields i in
    let key = key_of field in
    let v = String.sub field (String.length key + 1)
        (String.length field - String.length key - 1) in
    let* k = int_range 1 3 in
    let rec go k v =
      if k = 0 then return v else Grammar_fuzz.value_edit v >>= go (k - 1)
    in
    let* v = go k v in
    return
      ( key,
        String.concat " "
          (List.mapi (fun j f -> if j = i then key ^ "=" ^ v else f) fields) )
  in
  qcheck
    (QCheck.Test.make ~name:"workload errors name their key" ~count:3000
       (QCheck.make ~print:(fun (k, s) -> Printf.sprintf "%s in %S" k s) gen)
       (fun (key, s) ->
         match Workload.of_string s with
         | Ok _ -> true
         | Error e ->
             String.starts_with ~prefix:key e
             || QCheck.Test.fail_reportf "error %S does not start with %s" e
                  key))

(* The [(flag, value)] pairs that spell a spec line's fields as load
   flags: [--KEY], but [--stuck-after] for [stuck=]; [committee=] has no
   flag and is dropped. *)
let flags_of_spec s =
  List.filter_map
    (fun field ->
      let i = String.index field '=' in
      let key = String.sub field 0 i in
      let v = String.sub field (i + 1) (String.length field - i - 1) in
      match key with
      | "committee" -> None
      | "stuck" -> Some ("--stuck-after", v)
      | key -> Some ("--" ^ key, v))
    (String.split_on_char ' ' s)

let load_front_door = Workload.of_command_line ~base:"payments=100"

(* A valid spec's keys passed as flags give the same workload as the spec
   passed through --spec. *)
let flags_law =
  let specs =
    List.filter
      (fun s ->
        List.length (flags_of_spec s)
        = List.length (String.split_on_char ' ' s))
      workload_seeds
  in
  let gen =
    QCheck.Gen.(
      frequency
        [ (3, map Workload.to_string wl_gen); (1, oneofl specs) ])
  in
  qcheck
    (QCheck.Test.make ~name:"a spec's keys as flags equal the spec" ~count:500
       (QCheck.make ~print:Fun.id gen)
       (fun s ->
         let via_spec = load_front_door ~spec:s [] in
         let via_flags = load_front_door (flags_of_spec s) in
         Result.is_ok via_spec && via_spec = via_flags
         && via_spec = Workload.of_string s
         || QCheck.Test.fail_reportf "spec %s, flags %s"
              (match via_spec with Ok w -> Workload.to_string w | Error e -> e)
              (match via_flags with
              | Ok w -> Workload.to_string w
              | Error e -> e)))

(* ------------------------------ reuse ---------------------------------- *)

(* A block reset for another payment must be the block a fresh build
   gives that payment: equal data, and the same shared parts. *)
let check_twins ?plan label spec =
  let w =
    match Workload.of_string spec with
    | Ok w -> w
    | Error e -> Alcotest.failf "%s: %s" label e
  in
  let (reset : Load.block_view), fresh =
    Load.block_twins ?plan ~workload:w ~seed:5 ()
  in
  let same what eq =
    if not eq then Alcotest.failf "%s: the reset block's %s differ" label what
  in
  same "payment" (reset.v_payment = fresh.v_payment);
  same "value" (reset.v_value = fresh.v_value);
  same "amounts" (reset.v_amounts = fresh.v_amounts);
  same "held deposits" (reset.v_held = fresh.v_held);
  same "registry" (reset.v_registry = fresh.v_registry);
  same "executor slots" (reset.v_slots = fresh.v_slots);
  same "phases" (reset.v_phase = fresh.v_phase);
  same "buffered deliveries" (reset.v_buffered = fresh.v_buffered);
  same "fold" (reset.v_facts = fresh.v_facts);
  same "deposited" (reset.v_deposited = fresh.v_deposited);
  same "refunded" (reset.v_refunded = fresh.v_refunded);
  same "deposit ids" (reset.v_deposits = fresh.v_deposits);
  Array.iteri
    (fun l r ->
      if r <> fresh.v_procs.(l) then
        Alcotest.failf "%s: slot %d's record is %S, a birth's %S" label l r
          fresh.v_procs.(l))
    reset.v_procs;
  same "shared parts' count"
    (List.length reset.v_shared = List.length fresh.v_shared);
  same "shared parts" (List.for_all2 ( == ) reset.v_shared fresh.v_shared)

(* A shape's C verdict is a fresh check of the automata its blocks run,
   their slots past the automata (the template's replicas) as peers. *)
let check_verdict spec =
  let w =
    match Workload.of_string spec with
    | Ok w -> w
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  let (v : Load.block_view), _ = Load.block_twins ~workload:w ~seed:5 () in
  let (Protocols.Runner.Template t) = v.v_template in
  let k = Array.length t.automata and n = Array.length v.v_procs in
  Alcotest.check Alcotest.int (spec ^ ": slots running an automaton") (min k n)
    (Array.length v.v_slots);
  Alcotest.check
    Alcotest.(result unit string)
    spec
    (Anta.Network_check.well_formed
       ~peers:(List.init (n - k) (fun l -> k + l))
       t.automata)
    v.v_well_formed

let reuse_tests =
  let base hops mix =
    Printf.sprintf
      "payments=12 hops=%d mix=%s arrival=poisson:30 drift=0 patience=2000"
      hops mix
  in
  let plan s =
    match Faults.Fault_plan.of_string s with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan %s: %s" s e
  in
  List.concat_map
    (fun mix ->
      List.map
        (fun hops ->
          Alcotest.test_case
            (Printf.sprintf "a reset %s block at %d hops is a fresh one" mix
               hops)
            `Quick
            (fun () ->
              (* a duplicating link leaves messages in some pools, and a
                 healed crash gives a record its own crash state *)
              check_twins
                ~plan:(plan "dup *>* 0.3; crash 1@300+40")
                mix (base hops mix)))
        [ 1; 2; 3 ])
    [ "sync"; "naive"; "htlc"; "weak"; "committee"; "atomic" ]
  @ [
      Alcotest.test_case "a reset routed block is a fresh one" `Quick
        (fun () ->
          check_twins "routed"
            "payments=12 hops=2 mix=sync:1,weak:1 arrival=poisson:30 \
             topology=er:6:4:9 route=round-robin splits=3");
      Alcotest.test_case "a reset shared-committee block is a fresh one"
        `Quick (fun () ->
          check_twins "shared"
            "payments=12 hops=2 mix=shared arrival=poisson:30 drift=0 \
             patience=100000 committee=majority:4:1:4:2");
      Alcotest.test_case "every shape judges C of the template its blocks run"
        `Quick (fun () ->
          let linear =
            List.concat_map
              (fun mix -> List.map (fun hops -> base hops mix) [ 1; 2; 3 ])
              [ "sync"; "naive"; "htlc"; "weak"; "committee"; "atomic" ]
          in
          List.iter check_verdict
            (linear
            @ List.map
                (fun mix ->
                  "payments=12 hops=2 mix=" ^ mix
                  ^ " arrival=poisson:30 topology=er:6:4:9 \
                     route=round-robin splits=3")
                [ "sync:1,weak:1"; "weak:1,sync:1" ]
            @ [
                "payments=12 hops=2 mix=shared arrival=poisson:30 drift=0 \
                 patience=100000 committee=majority:4:1:4:2";
              ]));
      Alcotest.test_case "every HTLC instance draws its own preimage" `Quick
        (fun () ->
          (* built fresh or reset, a block's instance takes its id's seed:
             Alice's setup carries a lock per payment *)
          let w =
            match
              Workload.of_string
                "payments=12 hops=2 mix=htlc arrival=poisson:30 drift=0"
            with
            | Ok w -> w
            | Error e -> Alcotest.fail e
          in
          let recorder = Sim.Trace.create () in
          let _ : Load.report = Load.run ~recorder ~workload:w ~seed:5 () in
          let locks =
            List.filter_map
              (function
                | Sim.Trace.Sent
                    { src; msg = Protocols.Msg.Htlc_setup { lock; _ }; _ }
                  when (src - 1) mod Load.hosts w = 0 ->
                    Some lock
                | _ -> None)
              (Sim.Trace.to_list recorder)
          in
          Alcotest.(check int) "Alice's setups" 12 (List.length locks);
          Alcotest.(check int) "distinct locks" 12
            (List.length (List.sort_uniq compare locks)));
    ]

let () =
  Alcotest.run "traffic"
    [
      ("workload", workload_tests);
      ( "grammar",
        [
          Grammar_fuzz.property ~name:"workload of_string never raises"
            ~seeds:workload_seeds Workload.of_string;
          keyed_error_property;
          Grammar_fuzz.front_door_property
            ~name:"load flags parse or name their origin, never raise"
            ~pairs:(List.concat_map flags_of_spec workload_seeds)
            ~specs:workload_seeds
            load_front_door;
          flags_law;
        ] );
      ("tally", tally_tests);
      ("load", load_tests);
      ("causal", causal_tests);
      ("golden", golden_tests);
      ("dag", dag_tests);
      ("oracle", oracle_tests);
      ("reuse", reuse_tests);
    ]

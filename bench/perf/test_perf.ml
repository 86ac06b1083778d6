(* The benchmark's pure helpers, and its workload specs. *)

open Perf_lib

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "one" 7. (Stats.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples")
    (fun () -> ignore (Stats.median []))

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q = Alcotest.(pair close close) in
  Alcotest.check q "1..10" (2.75, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "1..7" (2., 6.)
    (Stats.quartiles [ 7.; 6.; 5.; 4.; 3.; 2.; 1. ]);
  Alcotest.check q "two" (0.75, 2.25) (Stats.quartiles [ 1.; 2. ]);
  Alcotest.check q "three" (1., 3.) (Stats.quartiles [ 3.; 1.; 2. ]);
  Alcotest.check q "one" (4., 4.) (Stats.quartiles [ 4. ])

let test_best_quarter () =
  let open Catalogue in
  let xs = List.init 8 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "fastest two of eight" 7.5 (Stats.best_quarter ~better:Higher xs);
  Alcotest.check close "shortest two of eight" 1.5 (Stats.best_quarter ~better:Lower xs);
  Alcotest.check close "fewer than four: the best" 3.
    (Stats.best_quarter ~better:Higher [ 1.; 3.; 2. ])

let test_bound () =
  let open Catalogue in
  Alcotest.check close "throughput drop" 0.1
    (Stats.worse_by ~better:Higher ~base:100. 90.);
  Alcotest.check close "time rise" 0.1 (Stats.worse_by ~better:Lower ~base:10. 11.);
  Alcotest.check close "gain is negative" (-0.5)
    (Stats.worse_by ~better:Lower ~base:10. 5.);
  Alcotest.(check bool) "at bound" true
    (Stats.within_bound ~better:Higher ~bound:0.1 ~base:100. 90.);
  Alcotest.(check bool) "past bound" false
    (Stats.within_bound ~better:Higher ~bound:0.1 ~base:100. 89.);
  Alcotest.(check bool) "zero base, worse" false
    (Stats.within_bound ~better:Lower ~bound:0.25 ~base:0. 1.);
  Alcotest.(check bool) "zero base, same" true
    (Stats.within_bound ~better:Lower ~bound:0. ~base:0. 0.)

let cost count wall_ns words = { Stats.count; wall_ns; words }

let test_rollup () =
  let sites =
    [
      ("tm", "deliver", cost 2 20 200);
      ("aux", "deliver", cost 1 10 100);
      ("alice", "timer", cost 3 30 300);
      ("idle", "deliver", cost 1 1 1);
      ("alice", "deliver", cost 1 5 50);
      ("node", "deliver", cost 4 40 400);
    ]
  in
  let rk = Stats.by_role_kind sites in
  Alcotest.(check (list (pair string string)))
    "role x kind order"
    [
      ("alice", "deliver"); ("alice", "timer"); ("aux", "deliver"); ("node", "deliver");
    ]
    (List.map fst rk);
  let roles = Stats.by_role sites in
  Alcotest.(check (list string)) "every role" Catalogue.roles (List.map fst roles);
  let get r = List.assoc r roles in
  Alcotest.(check int) "tm folds into aux" 3 (get "aux").count;
  Alcotest.(check int) "idle folds into node" 41 (get "node").wall_ns;
  Alcotest.(check int) "alice sums kinds" 350 (get "alice").words;
  Alcotest.(check int) "absent role is zero" 0 (get "notary").count;
  let total = List.fold_left (fun a (_, c) -> Stats.add a c) Stats.zero roles in
  Alcotest.(check int) "rollup keeps every dispatch" 12 total.count

(* Every load workload's spec parses, and printing it parses back to the
   same workload. *)
let test_specs () =
  List.iter
    (fun (w : Catalogue.workload) ->
      match w.target with
      | Soak _ -> ()
      | Load { spec; _ } -> (
          match Traffic.Workload.of_string spec with
          | Error e -> Alcotest.failf "%s: %s" w.name e
          | Ok parsed ->
              let printed = Traffic.Workload.to_string parsed in
              Alcotest.(check bool)
                (w.name ^ " round-trips") true
                (Traffic.Workload.of_string printed = Ok parsed)))
    Catalogue.workloads

let test_catalogue () =
  let names =
    List.map (fun (w : Catalogue.workload) -> w.name) Catalogue.workloads
    @ List.map (fun (b : Catalogue.bounded) -> b.metric.m_name) Catalogue.end_to_end
    @ List.map (fun (m : Catalogue.metric) -> m.m_name) Catalogue.per_layer
  in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let setup =
    List.find (fun (b : Catalogue.bounded) -> b.metric.m_name = "setup_s")
      Catalogue.end_to_end
  in
  List.iter
    (fun (b : Catalogue.bounded) ->
      Alcotest.(check bool)
        (b.metric.m_name ^ " bound within setup_s's") true
        (b.bound > 0. && b.bound <= setup.bound && b.bound <= 0.25))
    Catalogue.end_to_end

(* BENCHMARK.json declares the catalogue: every workload with its reason,
   every metric with its unit, direction and (end to end) bound. Compared
   with all whitespace removed, so only layout may differ. *)
let test_declared () =
  let better_name = function
    | Catalogue.Higher -> "higher"
    | Catalogue.Lower -> "lower"
  in
  let squash s =
    String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' s)))
  in
  let declared =
    squash (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
  in
  let contains sub =
    let sub = squash sub in
    let n = String.length declared and k = String.length sub in
    let rec at i = i + k <= n && (String.sub declared i k = sub || at (i + 1)) in
    at 0
  in
  let expect entry =
    Alcotest.(check bool) ("BENCHMARK.json has " ^ entry) true (contains entry)
  in
  List.iter
    (fun (w : Catalogue.workload) ->
      expect (Printf.sprintf {|{"name": "%s", "why": "%s"}|} w.name w.why))
    Catalogue.workloads;
  List.iter
    (fun ({ metric = m; bound } : Catalogue.bounded) ->
      expect
        (Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s", "bound": %g}|}
           m.m_name m.m_unit (better_name m.better) bound))
    Catalogue.end_to_end;
  List.iter
    (fun (m : Catalogue.metric) ->
      expect
        (Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s"}|} m.m_name
           m.m_unit (better_name m.better)))
    Catalogue.per_layer

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "best quarter" `Quick test_best_quarter;
          Alcotest.test_case "bound" `Quick test_bound;
          Alcotest.test_case "role rollup" `Quick test_rollup;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "workload specs round-trip" `Quick test_specs;
          Alcotest.test_case "names and bounds" `Quick test_catalogue;
          Alcotest.test_case "declared in BENCHMARK.json" `Quick test_declared;
        ] );
    ]

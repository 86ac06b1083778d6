(* Tests for the routing subsystem: topology grammar, path selection under
   liquidity, payment splitting, rebalancing, and the routed load path's
   end-to-end guarantees (conservation, determinism, multi-path gain). *)

open Routing

let qcheck = QCheck_alcotest.to_alcotest

let topo_of s =
  match Topology.of_string s with Ok t -> t | Error e -> Alcotest.fail e

let plan_of s =
  match Faults.Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let full_avail topo e = Topology.capacity topo.Topology.edges.(e)

(* ------------------------------ topology ------------------------------- *)

(* a small random topology spec: family and parameters drawn from the
   seed, in the grammar's families *)
let random_spec seed =
  let rng = Sim.Rng.create ~seed in
  let int n = Sim.Rng.int rng n in
  let liquidity = 100 * (1 + int 50) in
  let commission = int 20 in
  match int 4 with
  | 0 -> Printf.sprintf "linear:%d:%d:%d" (1 + int 4) liquidity commission
  | 1 -> Printf.sprintf "hub:%d:%d:%d" (2 + int 4) liquidity commission
  | 2 ->
      let nodes = 3 + int 5 in
      let extra = int (2 * nodes) in
      let seed = int 10_000 in
      Printf.sprintf "er:%d:%d:%d:%d:%d" nodes extra seed liquidity commission
  | _ ->
      let nodes = 3 + int 5 in
      let degree = 1 + int 2 in
      let seed = int 10_000 in
      Printf.sprintf "sf:%d:%d:%d:%d:%d" nodes degree seed liquidity commission

let random_topo seed = topo_of (random_spec seed)

let topo_arb =
  QCheck.make
    ~print:random_spec
    QCheck.Gen.(int_bound 10_000)

let topology_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"grammar round-trips up to normalization"
         ~count:500 topo_arb (fun seed ->
           let t = random_topo seed in
           match Topology.of_string (Topology.to_string t) with
           | Ok t' ->
               (* a parsed topology is already normalized *)
               t' = t
           | Error e ->
               QCheck.Test.fail_reportf "%s failed to re-parse: %s"
                 (Topology.to_string t) e));
    qcheck
      (QCheck.Test.make ~name:"random topologies validate" ~count:500 topo_arb
         (fun seed ->
           (* [of_string] validates what it builds *)
           match Topology.of_string (random_spec seed) with
           | Ok _ -> true
           | Error e ->
               QCheck.Test.fail_reportf "%s invalid: %s" (random_spec seed) e));
    Alcotest.test_case "sugar families expand to canonical graphs" `Quick
      (fun () ->
        let canon s = Topology.to_string (topo_of s) in
        Alcotest.(check string)
          "linear:2" "graph:3;0>1:0:10,1>2:0:10" (canon "linear:2");
        Alcotest.(check string)
          "linear honors liq/comm" "graph:3;0>1:500:7,1>2:500:7"
          (canon "linear:2:500:7");
        (* every family re-parses to itself: to_string is a fixpoint *)
        List.iter
          (fun s ->
            let c = canon s in
            Alcotest.(check string) (s ^ " canonical fixpoint") c (canon c))
          [ "hub:4"; "er:6:3:9"; "sf:5:2:3"; "hub:3:900:5" ]);
    Alcotest.test_case "bad specs are rejected with reasons" `Quick (fun () ->
        List.iter
          (fun s ->
            match Topology.of_string s with
            | Ok _ -> Alcotest.failf "%S should not parse" s
            | Error _ -> ())
          [
            "";
            "graph:1;0>0:0:0";
            "graph:3;0>1:0:10";
            (* sink unreachable *)
            "graph:3;0>1:0:10,0>1:5:5,1>2:0:10";
            (* duplicate edge *)
            "graph:3;0>1:-4:10,1>2:0:10";
            "ring:4";
            "linear:0";
          ]);
    Alcotest.test_case "liquidity histogram buckets by decade" `Quick
      (fun () ->
        let t = topo_of "graph:3;0>1:0:1,0>2:5:1,1>2:500:1,2>1:700:1" in
        Alcotest.(check (list (pair string int)))
          "buckets"
          [ ("unbounded", 1); ("1-9", 1); ("100-999", 2) ]
          (Topology.liquidity_histogram t));
  ]

(* ------------------------------- router -------------------------------- *)

(* random bounded-liquidity topology + value the graph can plausibly carry *)
let route_case_arb =
  QCheck.make
    ~print:(fun (seed, value, max_splits) ->
      Printf.sprintf "%s value=%d splits=%d"
        (Topology.to_string (random_topo seed))
        value max_splits)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 1 5_000) (int_range 1 4))

let router_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"splits sum exactly, stay disjoint, respect liquidity"
         ~count:500 route_case_arb (fun (seed, value, max_splits) ->
           let topo = random_topo seed in
           let router = Router.create topo in
           match
             Router.route router ~avail:(full_avail topo) ~value ~max_splits
           with
           | Error _ -> true (* refusal is always sound *)
           | Ok splits ->
               let total =
                 List.fold_left (fun a s -> a + s.Router.value) 0 splits
               in
               if total <> value then
                 QCheck.Test.fail_reportf "split sum %d <> value %d" total
                   value;
               if List.exists (fun s -> s.Router.value < 1) splits then
                 QCheck.Test.fail_report "non-positive split";
               if List.length splits > max_splits then
                 QCheck.Test.fail_report "too many splits";
               let used = Hashtbl.create 16 in
               List.iter
                 (fun s ->
                   let amounts =
                     Router.leg_amounts topo ~path:s.Router.path
                       ~value:s.Router.value
                   in
                   List.iteri
                     (fun i e ->
                       if Hashtbl.mem used e then
                         QCheck.Test.fail_reportf "edge %d reused" e;
                       Hashtbl.add used e ();
                       (* the reservation the load scheduler would make
                          never exceeds what the edge actually holds *)
                       if amounts.(i) > full_avail topo e then
                         QCheck.Test.fail_reportf
                           "edge %d: reserve %d > liquidity %d" e amounts.(i)
                           (full_avail topo e))
                     s.Router.path)
                 splits;
               true));
    qcheck
      (QCheck.Test.make ~name:"routed value never exceeds the max-flow bound"
         ~count:500 route_case_arb (fun (seed, value, max_splits) ->
           let topo = random_topo seed in
           let router = Router.create topo in
           match
             Router.route router ~avail:(full_avail topo) ~value ~max_splits
           with
           | Error _ -> true
           | Ok _ -> value <= Router.max_flow topo ()));
    Alcotest.test_case "leg amounts carry downstream commissions" `Quick
      (fun () ->
        let t = topo_of "graph:4;0>1:0:7,1>2:0:3,2>3:0:5" in
        Alcotest.(check (array int))
          "suffix sums" [| 1008; 1005; 1000 |]
          (Router.leg_amounts t ~path:[ 0; 1; 2 ] ~value:1000));
    Alcotest.test_case "shortest fills the cheap path first" `Quick (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        let r = Router.create t in
        match Router.route r ~avail:(full_avail t) ~value:1000 ~max_splits:2 with
        | Error e -> Alcotest.fail e
        | Ok splits ->
            Alcotest.(check (list int))
              "values" [ 600; 400 ]
              (List.map (fun s -> s.Router.value) splits));
    Alcotest.test_case "round-robin deals fair shares and rotates" `Quick
      (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        let r = Router.create ~strategy:Router.Round_robin t in
        let route () =
          match
            Router.route r ~avail:(full_avail t) ~value:1000 ~max_splits:2
          with
          | Error e -> Alcotest.fail e
          | Ok ss ->
              List.map
                (fun s -> (Router.path_nodes t s.Router.path, s.Router.value))
                ss
        in
        let first = route () in
        Alcotest.(check (list (pair (list int) int)))
          "even deal"
          [ ([ 0; 1; 3 ], 500); ([ 0; 2; 3 ], 500) ]
          first;
        (* the cursor advances: the next payment leads with the other path *)
        let second = route () in
        Alcotest.(check (list (pair (list int) int)))
          "rotated deal"
          [ ([ 0; 2; 3 ], 500); ([ 0; 1; 3 ], 500) ]
          second);
    Alcotest.test_case "all-or-nothing refusal reports the shortfall" `Quick
      (fun () ->
        let t = topo_of "graph:3;0>1:300:0,1>2:300:0" in
        let r = Router.create t in
        match Router.route r ~avail:(full_avail t) ~value:1000 ~max_splits:3 with
        | Ok _ -> Alcotest.fail "1000 cannot fit through 300"
        | Error e ->
            Alcotest.(check string) "names paths, carried and asked"
              "no route: 1 disjoint path(s) carry at most 300 of 1000" e);
    Alcotest.test_case "a refusal builds no text: it allocates less than a route"
      `Quick (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        let avail = full_avail t in
        let r = Router.create t in
        let words_per value =
          let go () = Router.attempt r ~avail ~value ~max_splits:2 in
          ignore (Sys.opaque_identity (go ()));
          let rounds = 1_000 in
          let before = Gc.minor_words () in
          for _ = 1 to rounds do
            ignore (Sys.opaque_identity (go ()))
          done;
          int_of_float (Gc.minor_words () -. before) / rounds
        in
        let admitted = words_per 1000 and refused = words_per 5000 in
        (match Router.attempt r ~avail ~value:5000 ~max_splits:2 with
        | Ok _ -> Alcotest.fail "5000 cannot fit through 1200"
        | Error _ -> ());
        if refused > admitted then
          Alcotest.failf "a refusal allocated %d words, an admitted route %d"
            refused admitted;
        (* the printing wrapper renders the same refusal, text unchanged *)
        match Router.route r ~avail ~value:5000 ~max_splits:2 with
        | Ok _ -> Alcotest.fail "5000 cannot fit through 1200"
        | Error e ->
            Alcotest.(check string) "rendered"
              "no route: 2 disjoint path(s) carry at most 1200 of 5000" e);
    Alcotest.test_case "max-flow matches hand-computed diamonds" `Quick
      (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        Alcotest.(check int) "diamond" 1200 (Router.max_flow t ());
        let t2 = topo_of "linear:3" in
        Alcotest.(check bool) "unbounded chain" true
          (Router.max_flow t2 () >= Topology.unbounded));
  ]

(* ----------------------------- path memo ------------------------------ *)

(* What [Router.route] should answer, recomputed without the router's
   memo or scratch: candidates from the memo-free [Router.paths], their
   capacities from [Router.path_capacity], and each strategy's deal as
   list code. [cursor] is the round-robin rotation the router under test
   has reached: its count of successful routes. *)
let reference topo strat ~cursor ~avail ~value ~max_splits =
  let cands =
    List.map
      (fun p -> (p, Router.path_capacity topo ~avail p))
      (Router.paths topo ~avail ~max:max_splits ())
  in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 cands in
  if total < value then
    Error
      (Printf.sprintf "no route: %d disjoint path(s) carry at most %d of %d"
         (List.length cands) total value)
  else
    match strat with
    | Router.Shortest ->
        let remaining = ref value in
        Ok
          (List.filter_map
             (fun (path, cap) ->
               let v = min cap !remaining in
               remaining := !remaining - v;
               if v > 0 then Some (path, v) else None)
             cands)
    | Router.Round_robin ->
        let n = List.length cands in
        let first = cursor mod n in
        let cands =
          Array.of_list
            (List.filteri (fun i _ -> i >= first) cands
            @ List.filteri (fun i _ -> i < first) cands)
        in
        let spare = Array.map snd cands and given = Array.make n 0 in
        let remaining = ref value in
        while !remaining > 0 do
          let live = Array.fold_left (fun a s -> if s > 0 then a + 1 else a) 0 spare in
          let quantum = max 1 (!remaining / max 1 live) in
          Array.iteri
            (fun i s ->
              if !remaining > 0 && s > 0 then begin
                let g = min s (min !remaining quantum) in
                given.(i) <- given.(i) + g;
                spare.(i) <- spare.(i) - g;
                remaining := !remaining - g
              end)
            spare
        done;
        Ok
          (List.filter
             (fun (_, v) -> v > 0)
             (Array.to_list (Array.mapi (fun i (p, _) -> (p, given.(i))) cands)))

(* One long-lived router driven through [steps] liquidity states: at each
   it must answer what the memo-free [reference] does. [next] moves the
   state on, given the routed splits of this step. Returns the distinct
   usable-edge sets the router saw. *)
let drive topo strat ~steps ~value ~max_splits ~next =
  let router = Router.create ~strategy:strat topo in
  let nedges = Array.length topo.Topology.edges in
  let room = Array.init nedges (full_avail topo) in
  let avail e = room.(e) in
  let cursor = ref 0 in
  let seen = Hashtbl.create 64 in
  for step = 1 to steps do
    Hashtbl.replace seen (String.init nedges (fun e -> if room.(e) >= 1 then '1' else '0')) ();
    let value = value step and max_splits = max_splits step in
    let got =
      Result.map
        (List.map (fun s -> (s.Router.path, s.Router.value)))
        (Router.route router ~avail ~value ~max_splits)
    in
    let want = reference topo strat ~cursor:!cursor ~avail ~value ~max_splits in
    if got <> want then
      QCheck.Test.fail_reportf "%s, step %d, room [%s]: memoised and memo-free routes differ"
        (Router.strategy_name strat) step
        (String.concat ";" (Array.to_list (Array.map string_of_int room)));
    (match got with Ok _ -> incr cursor | Error _ -> ());
    next room (Result.value ~default:[] got)
  done;
  Hashtbl.length seen

(* Spend what the splits reserve, as the load scheduler does, then dry up,
   refill or trim one random edge. *)
let churn rng topo room splits =
  let int n = Sim.Rng.int rng n in
  List.iter
    (fun (path, value) ->
      let amounts = Router.leg_amounts topo ~path ~value in
      List.iteri (fun i e -> room.(e) <- room.(e) - amounts.(i)) path)
    splits;
  let e = int (Array.length room) in
  match int 4 with
  | 0 -> room.(e) <- 0
  | 1 -> room.(e) <- full_avail topo e
  | 2 -> room.(e) <- int (full_avail topo e + 1)
  | _ -> ()

let memo_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"a memoised router routes as a memo-free search" ~count:200
         QCheck.(pair topo_arb bool)
         (fun (seed, rr) ->
           let topo = random_topo seed in
           let rng = Sim.Rng.create ~seed:(seed + 1) in
           let strat = if rr then Router.Round_robin else Router.Shortest in
           ignore
             (drive topo strat ~steps:150
                ~value:(fun _ -> 1 + Sim.Rng.int rng 3000)
                ~max_splits:(fun _ -> 1 + Sim.Rng.int rng 4)
                ~next:(churn rng topo));
           true));
    Alcotest.test_case "the memo's answers survive its eviction" `Quick
      (fun () ->
        (* 20 edges under random dry sets: far more distinct usable sets
           than the 1,024 searches a router keeps, revisited so that hits
           land both before and after the memo is cleared *)
        let topo = topo_of "er:7:14:3:900:2" in
        let nedges = Array.length topo.Topology.edges in
        List.iter
          (fun strat ->
            let rng = Sim.Rng.create ~seed:17 in
            let states = ref [] in
            let next room _ =
              match (Sim.Rng.int rng 3, !states) with
              | 0, (_ :: _ as old) ->
                  let back = List.nth old (Sim.Rng.int rng (List.length old)) in
                  Array.blit back 0 room 0 nedges
              | _ ->
                  Array.iteri
                    (fun e _ ->
                      room.(e) <-
                        (if Sim.Rng.int rng 10 < 3 then 0
                         else 1 + Sim.Rng.int rng (full_avail topo e)))
                    room;
                  states := Array.copy room :: !states
            in
            let distinct =
              drive topo strat ~steps:4_000
                ~value:(fun _ -> 1 + Sim.Rng.int rng 1500)
                ~max_splits:(fun _ -> 3)
                ~next
            in
            Alcotest.(check bool)
              (Printf.sprintf "%d distinct usable sets exceed the cap"
                 distinct)
              true (distinct > 2 * 1024))
          [ Router.Shortest; Router.Round_robin ]);
    Alcotest.test_case "a route that hits the memo allocates only its splits"
      `Quick (fun () ->
        let t = topo_of "graph:4;0>1:600:0,0>2:600:0,1>3:600:0,2>3:600:0" in
        let avail = full_avail t in
        List.iter
          (fun strat ->
            let r = Router.create ~strategy:strat t in
            let route () = Router.route r ~avail ~value:1000 ~max_splits:2 in
            ignore (Sys.opaque_identity (route ()));
            let rounds = 1_000 in
            let before = Gc.minor_words () in
            for _ = 1 to rounds do
              ignore (Sys.opaque_identity (route ()))
            done;
            let words = int_of_float (Gc.minor_words () -. before) / rounds in
            (* two splits (a 3-word record and a 3-word cons each) in a
               2-word [Ok]: 14 words, with 2 to spare; before the memo
               this route allocated over 300 *)
            if words > 16 then
              Alcotest.failf "%s: a memo hit allocated %d words per route"
                (Router.strategy_name strat) words)
          [ Router.Shortest; Router.Round_robin ]);
  ]

(* ------------------------------ rebalance ------------------------------ *)

let rebalance_tests =
  [
    Alcotest.test_case "rebalancing evens a skewed node and converges" `Quick
      (fun () ->
        let t = topo_of "graph:3;0>1:900:0,0>2:100:0,1>2:500:0" in
        let p = Rebalance.plan t in
        Alcotest.(check bool) "proposes a move" true
          (p.Rebalance.moves <> []);
        Alcotest.(check int) "moves 400 toward the mean" 400
          p.Rebalance.volume;
        Alcotest.(check bool) "from the flush edge to the drained one" true
          (p.Rebalance.moves
          = [ { Rebalance.node = 0; from_edge = 0; to_edge = 1; amount = 400 } ]);
        (* the graph with that move made *)
        let t' = topo_of "graph:3;0>1:500:0,0>2:500:0,1>2:500:0" in
        Alcotest.(check int) "second pass is a fixpoint" 0
          (Rebalance.plan t').Rebalance.volume);
    Alcotest.test_case "balanced and unbounded graphs propose nothing" `Quick
      (fun () ->
        List.iter
          (fun s ->
            let p = Rebalance.plan (topo_of s) in
            Alcotest.(check int) (s ^ " volume") 0 p.Rebalance.volume)
          [
            "linear:3" (* unbounded edges are never rebalanced *);
            "graph:3;0>1:500:0,0>2:500:0,1>2:100:0";
            "graph:3;0>1:400:0,1>2:600:0" (* single out-edges *);
          ]);
  ]

(* ----------------------------- routed load ----------------------------- *)

let spec s =
  match Traffic.Workload.of_string s with
  | Ok w -> w
  | Error e -> Alcotest.fail e

let diamond_constrained =
  (* one fat path carries two whole payments; three thin paths only help a
     router that can split across them *)
  "graph:6;0>1:2100:0,1>5:2100:0,0>2:700:0,2>5:700:0,0>3:700:0,3>5:700:0,0>4:700:0,4>5:700:0"

let load_spec ~splits =
  Printf.sprintf
    "payments=4 hops=2 value=1000 commission=10 arrival=burst:4:1 mix=sync:1 \
     policy=reserve cap=0 liquidity=0 patience=9000 stuck=0 drift=10000 \
     gst=none topology=%s route=shortest splits=%d"
    diamond_constrained splits

let routed_load_tests =
  [
    Alcotest.test_case "multi-path strictly beats single-path commits" `Slow
      (fun () ->
        let single =
          Traffic.Load.run ~workload:(spec (load_spec ~splits:1)) ~seed:5 ()
        in
        let multi =
          Traffic.Load.run ~workload:(spec (load_spec ~splits:4)) ~seed:5 ()
        in
        let value r =
          match r.Traffic.Load.routing with
          | Some s -> s.Traffic.Load.committed_value
          | None -> Alcotest.fail "routed run lost its routing stats"
        in
        (* single-path routing strands the thin paths' liquidity *)
        Alcotest.(check int) "single commits the fat path only" 2
          single.Traffic.Load.committed;
        Alcotest.(check bool) ">=30% of offered value stranded" true
          (100 * (4000 - value single) >= 30 * 4000);
        Alcotest.(check int) "splitting commits everything" 4
          multi.Traffic.Load.committed;
        Alcotest.(check bool) "multi strictly beats single" true
          (value multi > value single);
        List.iter
          (fun (r : Traffic.Load.report) ->
            Alcotest.(check bool) "conservation" true
              r.Traffic.Load.conservation_ok;
            Alcotest.(check int) "no violations" 0 r.Traffic.Load.violated)
          [ single; multi ]);
    Alcotest.test_case "routed reports are bit-identical across reruns" `Slow
      (fun () ->
        let w =
          spec
            "payments=10 hops=2 value=800 commission=10 arrival=poisson:50 \
             mix=sync:1,htlc:1 policy=reserve cap=0 liquidity=0 \
             patience=4000 stuck=0 drift=10000 gst=none \
             topology=hub:3:3000:5 route=round-robin splits=2"
        in
        let norm r =
          Traffic.Load.to_json { r with Traffic.Load.cost = Fleet.no_cost }
        in
        let a = norm (Traffic.Load.run ~workload:w ~seed:31 ()) in
        let b = norm (Traffic.Load.run ~workload:w ~seed:31 ()) in
        Alcotest.(check string) "same seed, same bytes" a b);
    qcheck
      (QCheck.Test.make
         ~name:"conservation holds under random faults and mixed outcomes"
         ~count:12
         QCheck.(int_bound 999)
         (fun seed ->
           let w =
             spec
               "payments=8 hops=2 value=600 commission=10 \
                arrival=poisson:30 mix=sync:1,weak:1 policy=reserve cap=0 \
                liquidity=0 patience=3000 stuck=0 drift=10000 gst=none \
                topology=hub:4:2500:5 route=shortest splits=2"
           in
           (* graph blocks are at least 2 hops -> stride >= 5 hosts *)
           let prng = Sim.Rng.create ~seed:(seed + 7919) in
           let plan =
             Faults.Fault_plan.random prng ~nprocs:5 ~horizon:4000
           in
           let r = Traffic.Load.run ~plan ~workload:w ~seed () in
           if not r.Traffic.Load.conservation_ok then
             QCheck.Test.fail_reportf "books broke under %s"
               (Faults.Fault_plan.to_string plan);
           if r.Traffic.Load.violated > 0 then
             QCheck.Test.fail_reportf "safety violated under %s: %s"
               (Faults.Fault_plan.to_string plan)
               (String.concat "; "
                  (List.map
                     (fun v -> v.Traffic.Load.detail)
                     r.Traffic.Load.violations));
           true));
    Alcotest.test_case "partial multi-path payments abort, never commit"
      `Slow (fun () ->
        (* crash the middle host: some splits pay before the crash bites,
           whole payments must still not count as committed *)
        let w =
          spec
            "payments=10 hops=2 value=1000 commission=10 arrival=burst:10:1 \
             mix=sync:1 policy=reserve cap=0 liquidity=0 patience=9000 \
             stuck=1500 drift=10000 gst=none topology=hub:3:8000:0 \
             route=round-robin splits=2"
        in
        let r =
          Traffic.Load.run ~plan:(plan_of "crash 2@700") ~workload:w ~seed:3
            ()
        in
        Alcotest.(check bool) "conservation" true
          r.Traffic.Load.conservation_ok;
        match r.Traffic.Load.routing with
        | None -> Alcotest.fail "missing routing stats"
        | Some s ->
            (* every committed payment delivered its full value; anything
               beyond that in committed_value came from partially-paid
               payments, which must not be counted as committed *)
            Alcotest.(check bool) "committed pay in full" true
              (s.Traffic.Load.committed_value
              >= r.Traffic.Load.committed * 1000);
            if s.Traffic.Load.partial_payments = 0 then
              Alcotest.(check int) "no partials: value = committed x 1000"
                (r.Traffic.Load.committed * 1000)
                s.Traffic.Load.committed_value
            else
              Alcotest.(check bool) "partials add paid-split value" true
                (s.Traffic.Load.committed_value
                > r.Traffic.Load.committed * 1000));
  ]

let () =
  Alcotest.run "routing"
    [
      ("topology", topology_tests);
      ( "grammar",
        [
          Grammar_fuzz.property ~name:"topology of_string never raises"
            ~seeds:
              [
                "linear:2:500:7"; "hub:3:900:5"; "er:6:3:9"; "sf:5:2:3";
                "graph:3;0>1:0:1,0>2:5:1,1>2:500:1,2>1:700:1";
              ]
            Topology.of_string;
        ] );
      ("router", router_tests);
      ("memo", memo_tests);
      ("rebalance", rebalance_tests);
      ("routed-load", routed_load_tests);
    ]

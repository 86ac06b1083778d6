(* Tests for the simulation substrate: time arithmetic, RNG, event queue,
   drifting clocks, statistics, network models, and the engine itself. *)

open Sim

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------ Sim_time ------------------------------ *)

let time_tests =
  [
    Alcotest.test_case "add basic" `Quick (fun () ->
        check Alcotest.int "3+4" 7 (Sim_time.add 3 4));
    Alcotest.test_case "add saturates at infinity" `Quick (fun () ->
        check Alcotest.bool "inf" true
          (Sim_time.is_infinite (Sim_time.add Sim_time.infinity 1));
        check Alcotest.bool "overflow" true
          (Sim_time.is_infinite (Sim_time.add max_int (max_int / 2))));
    Alcotest.test_case "sub clamps at zero" `Quick (fun () ->
        check Alcotest.int "3-7" 0 (Sim_time.sub 3 7);
        check Alcotest.int "7-3" 4 (Sim_time.sub 7 3));
    Alcotest.test_case "sub of infinity stays infinite" `Quick (fun () ->
        check Alcotest.bool "inf" true
          (Sim_time.is_infinite (Sim_time.sub Sim_time.infinity 5)));
    Alcotest.test_case "scale exact" `Quick (fun () ->
        check Alcotest.int "10*3/2" 15 (Sim_time.scale 10 ~num:3 ~den:2));
    Alcotest.test_case "scale rounds up" `Quick (fun () ->
        check Alcotest.int "ceil(10/3)" 4 (Sim_time.scale 10 ~num:1 ~den:3);
        check Alcotest.int "ceil(7*3/2)" 11 (Sim_time.scale 7 ~num:3 ~den:2));
    Alcotest.test_case "scale by zero" `Quick (fun () ->
        check Alcotest.int "0" 0 (Sim_time.scale 1000 ~num:0 ~den:7));
    Alcotest.test_case "scale of infinity" `Quick (fun () ->
        check Alcotest.bool "inf" true
          (Sim_time.is_infinite (Sim_time.scale Sim_time.infinity ~num:1 ~den:2)));
    Alcotest.test_case "scale rejects bad den" `Quick (fun () ->
        Alcotest.check_raises "den 0" (Invalid_argument "Sim_time.scale: den must be positive")
          (fun () -> ignore (Sim_time.scale 1 ~num:1 ~den:0)));
    Alcotest.test_case "pp" `Quick (fun () ->
        check Alcotest.string "42" "42" (Sim_time.to_string 42);
        check Alcotest.string "inf" "inf" (Sim_time.to_string Sim_time.infinity));
    qcheck
      (QCheck.Test.make ~name:"scale never under-approximates"
         QCheck.(triple (int_bound 1_000_000) (int_bound 1000) (int_range 1 1000))
         (fun (t, num, den) ->
           (* ceil semantics: scale t * den >= t * num *)
           Sim_time.scale t ~num ~den * den >= t * num));
    qcheck
      (QCheck.Test.make ~name:"scale tight: subtracting one breaks the bound"
         QCheck.(pair (int_range 1 1_000_000) (int_range 1 1000))
         (fun (t, den) ->
           let s = Sim_time.scale t ~num:1 ~den in
           (s - 1) * den < t));
  ]

(* -------------------------------- Rng --------------------------------- *)

let rng_tests =
  [
    Alcotest.test_case "same seed same stream" `Quick (fun () ->
        let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
        for _ = 1 to 100 do
          check Alcotest.int64 "same" (Rng.next_int64 a) (Rng.next_int64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
        check Alcotest.bool "differ" true (Rng.next_int64 a <> Rng.next_int64 b));
    Alcotest.test_case "copy replays" `Quick (fun () ->
        let a = Rng.create ~seed:7 in
        ignore (Rng.next_int64 a);
        let b = Rng.copy a in
        check Alcotest.int64 "replay" (Rng.next_int64 a) (Rng.next_int64 b));
    Alcotest.test_case "split independent of parent continuation" `Quick
      (fun () ->
        let a = Rng.create ~seed:9 in
        let child = Rng.split a in
        let c1 = Rng.next_int64 child in
        (* child's future must not depend on further parent draws *)
        let a2 = Rng.create ~seed:9 in
        let child2 = Rng.split a2 in
        ignore (Rng.next_int64 a2);
        check Alcotest.int64 "stable" c1 (Rng.next_int64 child2));
    Alcotest.test_case "int rejects non-positive bound" `Quick (fun () ->
        Alcotest.check_raises "bound 0"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int (Rng.create ~seed:1) 0)));
    Alcotest.test_case "shuffle preserves elements" `Quick (fun () ->
        let a = Array.init 100 Fun.id in
        Rng.shuffle (Rng.create ~seed:5) a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted);
    (* Known-answer vectors: the SplitMix64 streams every seeded run,
       golden digest and replay depends on, pinned bit for bit. *)
    Alcotest.test_case "known-answer streams for seeds 0, 1, 42" `Quick
      (fun () ->
        let stream seed =
          let g = Rng.create ~seed in
          List.init 8 (fun _ -> Rng.next_int64 g)
        in
        check Alcotest.(list int64) "seed 0"
          [
            0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
            0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
            0x2c829abe1f4532e1L; 0xc584133ac916ab3cL;
          ]
          (stream 0);
        check Alcotest.(list int64) "seed 1"
          [
            0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L;
            0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
            0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL;
          ]
          (stream 1);
        check Alcotest.(list int64) "seed 42"
          [
            0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
            0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
            0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L;
          ]
          (stream 42));
    Alcotest.test_case "known-answer split child and copy replay" `Quick
      (fun () ->
        let g = Rng.create ~seed:7 in
        let c = Rng.split g in
        check Alcotest.(list int64) "child"
          [
            0x8c67274bd4da9230L; 0x5b0d33ebb04e4c17L; 0x2f9905d0777b6632L;
            0x55471384bb8e0572L;
          ]
          (List.init 4 (fun _ -> Rng.next_int64 c));
        check Alcotest.(list int64) "parent after split"
          [ 0x4d58fbd282eaf415L; 0xf0e521070cc03750L ]
          (List.init 2 (fun _ -> Rng.next_int64 g));
        let g = Rng.create ~seed:3 in
        ignore (Rng.next_int64 g);
        let h = Rng.copy g in
        check Alcotest.int64 "original" 0x6f6203387a582791L (Rng.next_int64 g);
        check Alcotest.int64 "copy" 0x6f6203387a582791L (Rng.next_int64 h));
    Alcotest.test_case "known-answer int_in, bool and exponential_ticks"
      `Quick (fun () ->
        let g = Rng.create ~seed:5 in
        check Alcotest.(list int) "int_in"
          [ 68; 33; -3; -2; 2; 82; 8; 46 ]
          (List.init 8 (fun _ -> Rng.int_in g ~lo:(-3) ~hi:100));
        check Alcotest.(list bool) "bool"
          [ true; false; true; false; false; false; true; false ]
          (List.init 8 (fun _ -> Rng.bool g));
        check Alcotest.(list int) "exponential_ticks"
          [ 6; 2; 28; 6; 1; 26; 11; 4 ]
          (List.init 8 (fun _ -> Rng.exponential_ticks g ~mean:20)));
    qcheck
      (QCheck.Test.make ~name:"int within bound"
         QCheck.(pair small_int (int_range 1 10_000))
         (fun (seed, bound) ->
           let g = Rng.create ~seed in
           let v = Rng.int g bound in
           v >= 0 && v < bound));
    qcheck
      (QCheck.Test.make ~name:"int_in inclusive range"
         QCheck.(triple small_int (int_range (-500) 500) (int_bound 1000))
         (fun (seed, lo, extra) ->
           let hi = lo + extra in
           let g = Rng.create ~seed in
           let v = Rng.int_in g ~lo ~hi in
           v >= lo && v <= hi));
    qcheck
      (QCheck.Test.make ~name:"exponential positive and capped"
         QCheck.(pair small_int (int_range 1 1000))
         (fun (seed, mean) ->
           let g = Rng.create ~seed in
           let v = Rng.exponential_ticks g ~mean in
           v >= 1 && v <= 50 * mean));
  ]

(* ----------------------------- Event_queue ---------------------------- *)

(* every event, in pop order *)
let pop_all q =
  let rec go acc =
    match Event_queue.pop q with None -> List.rev acc | Some te -> go (te :: acc)
  in
  go []

let queue_tests =
  [
    Alcotest.test_case "pops in time order" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q ~time:30 "c";
        Event_queue.push q ~time:10 "a";
        Event_queue.push q ~time:20 "b";
        check
          Alcotest.(list (pair int string))
          "order"
          [ (10, "a"); (20, "b"); (30, "c") ]
          (pop_all q));
    Alcotest.test_case "insertion order breaks ties" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q ~time:5 "first";
        Event_queue.push q ~time:5 "second";
        Event_queue.push q ~time:5 "third";
        check
          Alcotest.(list string)
          "fifo" [ "first"; "second"; "third" ]
          (List.map snd (pop_all q)));
    Alcotest.test_case "reserved numbers pop as if pushed early" `Quick
      (fun () ->
        let q = Event_queue.create () in
        let first = Event_queue.reserve q 2 in
        Event_queue.push q ~time:5 "later";
        Event_queue.push q ~time:3 "earliest";
        Event_queue.push_reserved q ~time:5 ~seq:(first + 1) "reserved 1";
        Event_queue.push_reserved q ~time:5 ~seq:first "reserved 0";
        check
          Alcotest.(list string)
          "order"
          [ "earliest"; "reserved 0"; "reserved 1"; "later" ]
          (List.map snd (pop_all q));
        Alcotest.check_raises "unreserved"
          (Invalid_argument
             "Event_queue.push_reserved: sequence number not reserved")
          (fun () -> Event_queue.push_reserved q ~time:1 ~seq:99 "x"));
    Alcotest.test_case "peek shows the earliest" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q ~time:9 "y";
        Event_queue.push q ~time:1 "x";
        check Alcotest.int "peek" 1 (Event_queue.min_time q);
        check Alcotest.int "kept" 2 (Event_queue.length q);
        check
          Alcotest.(option (pair int string))
          "pop" (Some (1, "x")) (Event_queue.pop q));
    Alcotest.test_case "length counts pushes minus pops" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q ~time:1 ();
        Event_queue.push q ~time:2 ();
        ignore (Event_queue.pop q);
        check Alcotest.int "len" 1 (Event_queue.length q);
        ignore (Event_queue.pop q);
        check Alcotest.bool "empty" true (Event_queue.is_empty q);
        Alcotest.check_raises "peek empty"
          (Invalid_argument "Event_queue.min_time: empty queue") (fun () ->
            ignore (Event_queue.min_time q)));
    qcheck
      (QCheck.Test.make ~name:"drain equals stable sort"
         QCheck.(list (int_bound 1000))
         (fun times ->
           let q = Event_queue.create () in
           List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
           let drained = pop_all q in
           let expected =
             List.mapi (fun i t -> (t, i)) times
             |> List.stable_sort (fun (t1, i1) (t2, i2) ->
                    if t1 <> t2 then compare t1 t2 else compare i1 i2)
           in
           drained = expected));
    qcheck
      (let time =
         QCheck.Gen.(
           frequency [ (6, int_bound 40); (1, return Sim_time.infinity) ])
       in
       let op =
         QCheck.Gen.(
           frequency [ (3, map (fun t -> `Push t) time); (1, return `Pop) ])
       in
       QCheck.Test.make ~name:"differential: ops match a sorted model"
         ~count:300
         (QCheck.make
            ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
            QCheck.Gen.(list_size (0 -- 200) op))
         (fun ops ->
           (* the reference is a list kept sorted by (time, push index);
              every pop, peek and length must agree with it *)
           let q = Event_queue.create () in
           let model = ref [] in
           let agrees () =
             Event_queue.length q = List.length !model
             && (Event_queue.is_empty q
                || Some (Event_queue.min_time q)
                   = (match !model with [] -> None | (t, _) :: _ -> Some t))
           in
           List.for_all
             (fun (i, op) ->
               let step_ok =
                 match op with
                 | `Push time ->
                     Event_queue.push q ~time i;
                     model := List.merge compare !model [ (time, i) ];
                     true
                 | `Pop ->
                     let expected =
                       match !model with
                       | [] -> None
                       | top :: rest ->
                           model := rest;
                           Some top
                     in
                     Event_queue.pop q = expected
               in
               step_ok && agrees ())
             (List.mapi (fun i op -> (i, op)) ops)
           && pop_all q = !model));
    Alcotest.test_case "popped payloads are not retained" `Quick (fun () ->
        let q = Event_queue.create () in
        let w = Weak.create 20 in
        (* allocate in a separate frame so no local keeps a payload alive *)
        let fill () =
          for i = 0 to 19 do
            let payload = Bytes.make 16 (Char.chr (65 + i)) in
            Weak.set w i (Some payload);
            Event_queue.push q ~time:i payload
          done
        in
        (Sys.opaque_identity fill) ();
        for _ = 1 to 15 do
          ignore (Sys.opaque_identity (Event_queue.pop q))
        done;
        Gc.full_major ();
        for i = 0 to 14 do
          check Alcotest.bool
            (Printf.sprintf "popped %d collected" i)
            false (Weak.check w i)
        done;
        for i = 15 to 19 do
          check Alcotest.bool (Printf.sprintf "queued %d kept" i) true
            (Weak.check w i)
        done;
        check Alcotest.int "five left" 5 (Event_queue.length q));
    qcheck
      (let op =
         QCheck.Gen.(
           frequency
             [
               (2, map (fun t -> `Push t) (int_bound 40));
               (3, map (fun t -> `Push_removable t) (int_bound 40));
               (2, map (fun k -> `Remove k) nat);
               (2, return `Pop);
             ])
       in
       QCheck.Test.make ~name:"differential: removal matches a sorted model"
         ~count:300
         (QCheck.make
            ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
            QCheck.Gen.(list_size (0 -- 200) op))
         (fun ops ->
           (* the model keeps (time, push index) sorted; [handles] maps
              each queued removable event's push index to its handle.
              A removed event must never pop, and the rest pop in
              (time, seq) order. *)
           let q = Event_queue.create () in
           let model = ref [] and handles = ref [] in
           let removed = Hashtbl.create 16 in
           let popped_ok = function
             | None -> true
             | Some (_, i) -> not (Hashtbl.mem removed i)
           in
           List.for_all
             (fun (i, op) ->
               let step_ok =
                 match op with
                 | `Push time ->
                     Event_queue.push q ~time i;
                     model := List.merge compare !model [ (time, i) ];
                     true
                 | `Push_removable time ->
                     let h = Event_queue.push_removable q ~time i in
                     handles := (i, h) :: !handles;
                     model := List.merge compare !model [ (time, i) ];
                     true
                 | `Remove k -> (
                     match !handles with
                     | [] -> true
                     | hs ->
                         let j, h = List.nth hs (k mod List.length hs) in
                         Event_queue.remove q h;
                         Hashtbl.replace removed j ();
                         handles := List.remove_assoc j hs;
                         model := List.filter (fun (_, m) -> m <> j) !model;
                         true)
                 | `Pop ->
                     let expected =
                       match !model with
                       | [] -> None
                       | ((_, j) as top) :: rest ->
                           model := rest;
                           handles := List.remove_assoc j !handles;
                           Some top
                     in
                     let got = Event_queue.pop q in
                     popped_ok got && got = expected
               in
               step_ok && Event_queue.length q = List.length !model)
             (List.mapi (fun i op -> (i, op)) ops)
           && pop_all q = !model));
    Alcotest.test_case "a removed or popped handle is refused" `Quick
      (fun () ->
        let q = Event_queue.create () in
        let a = Event_queue.push_removable q ~time:1 "a" in
        let b = Event_queue.push_removable q ~time:2 "b" in
        Event_queue.remove q b;
        check
          Alcotest.(option (pair int string))
          "pop" (Some (1, "a")) (Event_queue.pop q);
        List.iter
          (fun h ->
            Alcotest.check_raises "gone"
              (Invalid_argument "Event_queue.remove: handle not queued")
              (fun () -> Event_queue.remove q h))
          [ a; b ];
        check Alcotest.bool "empty" true (Event_queue.is_empty q));
  ]

(* -------------------------------- Clock ------------------------------- *)

(* whether the clock's rate lies within the [1 ± drift_ppm·10⁻⁶] envelope,
   read off the clock: every clock here has den = 10⁶ and epoch 0, so over
   10⁶ global ticks it advances exactly num ticks *)
let envelope_ok c ~drift_ppm =
  let ppm = 1_000_000 in
  let v = Clock.local_of_global c ppm - Clock.local_of_global c 0 in
  v >= ppm - drift_ppm && v <= ppm + drift_ppm

let clock_tests =
  [
    Alcotest.test_case "perfect clock is identity" `Quick (fun () ->
        check Alcotest.int "read" 12345 (Clock.local_of_global Clock.perfect 12345);
        check Alcotest.int "inverse" 12345 (Clock.global_of_local Clock.perfect 12345));
    Alcotest.test_case "fast clock runs ahead" `Quick (fun () ->
        let c = Clock.create ~num:11 ~den:10 () in
        check Alcotest.int "110" 110 (Clock.local_of_global c 100));
    Alcotest.test_case "slow clock lags" `Quick (fun () ->
        let c = Clock.create ~num:9 ~den:10 () in
        check Alcotest.int "90" 90 (Clock.local_of_global c 100));
    Alcotest.test_case "offset applies" `Quick (fun () ->
        let c = Clock.create ~l0:500 ~num:1 ~den:1 () in
        check Alcotest.int "shifted" 600 (Clock.local_of_global c 100));
    Alcotest.test_case "envelope check" `Quick (fun () ->
        let c = Clock.create ~num:1_005_000 ~den:1_000_000 () in
        check Alcotest.bool "within 1%" true (envelope_ok c ~drift_ppm:10_000);
        check Alcotest.bool "outside 0.1%" false (envelope_ok c ~drift_ppm:1_000));
    Alcotest.test_case "create rejects bad rate" `Quick (fun () ->
        Alcotest.check_raises "zero num"
          (Invalid_argument "Clock.create: rate must be positive") (fun () ->
            ignore (Clock.create ~num:0 ~den:1 ())));
    qcheck
      (QCheck.Test.make ~name:"local_of_global monotone"
         QCheck.(
           quad (int_range 900_000 1_100_000) (int_bound 100_000)
             (int_bound 100_000) (int_bound 10_000))
         (fun (num, g1, g2, l0) ->
           let c = Clock.create ~l0 ~num ~den:1_000_000 () in
           let lo = min g1 g2 and hi = max g1 g2 in
           Clock.local_of_global c lo <= Clock.local_of_global c hi));
    qcheck
      (QCheck.Test.make ~name:"global_of_local is the exact inverse bound"
         QCheck.(pair (int_range 900_000 1_100_000) (int_bound 1_000_000))
         (fun (num, deadline) ->
           let c = Clock.create ~num ~den:1_000_000 () in
           let g = Clock.global_of_local c deadline in
           (* minimal global time whose local reading reaches the deadline *)
           Clock.local_of_global c g >= deadline
           && (g = 0 || Clock.local_of_global c (g - 1) < deadline)));
    qcheck
      (QCheck.Test.make ~name:"random clocks stay in the drift envelope"
         QCheck.(pair small_int (int_range 0 200_000))
         (fun (seed, drift_ppm) ->
           let rng = Rng.create ~seed in
           envelope_ok (Clock.random rng ~drift_ppm) ~drift_ppm));
    qcheck
      (QCheck.Test.make ~name:"flat draws make the clocks random makes"
         QCheck.(pair small_int (int_range 0 200_000))
         (fun (seed, drift_ppm) ->
           (* the same stream, taken as clocks and as flat draws, stays in
              step clock by clock *)
           let a = Rng.create ~seed and b = Rng.create ~seed in
           let draws = Array.make 6 0 in
           List.for_all
             (fun i ->
               Clock.draw b ~drift_ppm draws i;
               Clock.random a ~drift_ppm
               = Clock.of_draw draws i ~l0:draws.(i + 1) ~g0:0)
             [ 0; 2; 4 ]));
  ]

(* -------------------------------- Stats ------------------------------- *)

let stats_tests =
  [
    Alcotest.test_case "mean of a known sample" `Quick (fun () ->
        check (Alcotest.float 1e-9) "mean" 3.0
          (Stats.mean [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
        check (Alcotest.float 1e-9) "empty" 0.0 (Stats.mean []));
    Alcotest.test_case "rate" `Quick (fun () ->
        check (Alcotest.float 1e-9) "50%" 50.0 (Stats.rate ~hits:1 ~total:2);
        check (Alcotest.float 1e-9) "empty" 0.0 (Stats.rate ~hits:0 ~total:0));
    Alcotest.test_case "wilson interval brackets the point estimate" `Quick
      (fun () ->
        let lo, hi = Stats.wilson ~hits:32 ~total:400 in
        let p = Stats.rate ~hits:32 ~total:400 in
        check Alcotest.bool "lo < p < hi" true (lo < p && p < hi);
        check Alcotest.bool "ordered" true (lo >= 0.0 && hi <= 100.0));
    Alcotest.test_case "wilson at the extremes" `Quick (fun () ->
        let lo0, _ = Stats.wilson ~hits:0 ~total:100 in
        check (Alcotest.float 1e-9) "zero hits lo" 0.0 lo0;
        let _, hi1 = Stats.wilson ~hits:100 ~total:100 in
        check (Alcotest.float 1e-6) "all hits hi" 100.0 hi1;
        check Alcotest.bool "empty sample" true
          (Stats.wilson ~hits:0 ~total:0 = (0.0, 100.0)));
    Alcotest.test_case "wilson narrows with sample size" `Quick (fun () ->
        let lo1, hi1 = Stats.wilson ~hits:5 ~total:20 in
        let lo2, hi2 = Stats.wilson ~hits:100 ~total:400 in
        check Alcotest.bool "narrower" true (hi2 -. lo2 < hi1 -. lo1));
  ]

(* ------------------------------- Network ------------------------------ *)

(* the delay envelope a network of [model] hands its adversary for a send
   at [send_time] *)
let bounds_at model ~send_time =
  let seen = ref None in
  let adversary ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds =
    seen := Some bounds;
    None
  in
  let t = Network.create ~adversary ~fifo:false model (Rng.create ~seed:1) in
  ignore (Network.delivery_time t ~send_time ~src:0 ~dst:1 ~tag:"b");
  Option.get !seen

let network_tests =
  [
    Alcotest.test_case "sync bounds" `Quick (fun () ->
        let b =
          bounds_at (Network.Synchronous { delta = 50 }) ~send_time:123
        in
        check Alcotest.int "lo" 1 b.Network.lo;
        check Alcotest.int "hi" 50 b.Network.hi);
    Alcotest.test_case "psync bounds before GST stretch to GST+delta" `Quick
      (fun () ->
        let model = Network.Partially_synchronous { gst = 1000; delta = 50 } in
        let b = bounds_at model ~send_time:200 in
        check Alcotest.int "hi pre-GST" 850 b.Network.hi;
        let b2 = bounds_at model ~send_time:1500 in
        check Alcotest.int "hi post-GST" 50 b2.Network.hi);
    Alcotest.test_case "adversary is clamped to the model" `Quick (fun () ->
        let adversary ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds:_ =
          Some 1_000_000
        in
        let t =
          Network.create ~adversary ~fifo:false
            (Network.Synchronous { delta = 10 })
            (Rng.create ~seed:1)
        in
        let at = Network.delivery_time t ~send_time:100 ~src:0 ~dst:1 ~tag:"x" in
        check Alcotest.bool "within delta" true (at <= 110 && at >= 101));
    Alcotest.test_case "fifo prevents overtaking" `Quick (fun () ->
        let slow_then_fast =
          let n = ref 0 in
          fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds:(_ : Network.bounds) ->
            incr n;
            if !n = 1 then Some 100 else Some 1
        in
        let t =
          Network.create ~adversary:slow_then_fast
            (Network.Synchronous { delta = 100 })
            (Rng.create ~seed:1)
        in
        let a1 = Network.delivery_time t ~send_time:0 ~src:0 ~dst:1 ~tag:"m" in
        let a2 = Network.delivery_time t ~send_time:1 ~src:0 ~dst:1 ~tag:"m" in
        check Alcotest.bool "no overtake" true (a2 >= a1));
    Alcotest.test_case "distinct channels are independent" `Quick (fun () ->
        let slow_then_fast =
          let n = ref 0 in
          fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds:(_ : Network.bounds) ->
            incr n;
            if !n = 1 then Some 100 else Some 1
        in
        let t =
          Network.create ~adversary:slow_then_fast
            (Network.Synchronous { delta = 100 })
            (Rng.create ~seed:1)
        in
        let _ = Network.delivery_time t ~send_time:0 ~src:0 ~dst:1 ~tag:"m" in
        let a2 = Network.delivery_time t ~send_time:1 ~src:0 ~dst:2 ~tag:"m" in
        check Alcotest.int "fast on other channel" 2 a2);
    qcheck
      (QCheck.Test.make ~name:"sampled delays within model bounds"
         QCheck.(pair small_int (int_bound 10_000))
         (fun (seed, send_time) ->
           let model = Network.Partially_synchronous { gst = 5_000; delta = 77 } in
           let t = Network.create ~fifo:false model (Rng.create ~seed) in
           let at =
             Network.delivery_time t ~send_time ~src:0 ~dst:1 ~tag:"q"
           in
           let b = bounds_at model ~send_time in
           let d = at - send_time in
           d >= b.Network.lo && d <= b.Network.hi));
    qcheck
      (QCheck.Test.make
         ~name:"fifo keeps per-link deliveries monotone under any fault plan"
         ~count:100 QCheck.small_int
         (fun seed ->
           (* drive the network exactly as the engine does — fate first,
              then one delivery_time per surviving copy — under a random
              fault plan (drops, duplicates, corruption, partitions) and a
              randomly meddling adversary, and require that on every
              (src, dst) link delivery times never go backwards *)
           let prng = Rng.create ~seed:(seed + 1) in
           let plan = Faults.Fault_plan.random prng ~nprocs:4 ~horizon:1_000 in
           let inj =
             Faults.Injector.create
               ~metrics:(Obsv.Metrics.create ())
               ~plan ~seed ()
           in
           let arng = Rng.create ~seed:(seed + 2) in
           let adversary ~send_time:_ ~src:_ ~dst:_ ~tag:_
               ~bounds:(b : Network.bounds) =
             if Rng.bool arng then
               Some (Rng.int_in arng ~lo:b.Network.lo ~hi:b.Network.hi)
             else None
           in
           let t =
             Network.create ~adversary ~tamper:(Faults.Injector.tamper inj)
               ~fifo:true
               ~metrics:(Obsv.Metrics.create ())
               (Network.Synchronous { delta = 50 })
               (Rng.create ~seed:(seed + 3))
           in
           let last = Hashtbl.create 16 in
           let ok = ref true in
           for i = 0 to 199 do
             let send_time = i * 3 in
             let src = Rng.int arng 4 and dst = Rng.int arng 4 in
             let copies = Network.fate t ~send_time ~src ~dst ~tag:"m" in
             List.iter
               (fun (_ : Network.copy) ->
                 let at =
                   Network.delivery_time t ~send_time ~src ~dst ~tag:"m"
                 in
                 (match Hashtbl.find_opt last (src, dst) with
                 | Some prev when at < prev -> ok := false
                 | _ -> ());
                 Hashtbl.replace last (src, dst) at)
               copies
           done;
           !ok));
  ]

(* -------------------------------- Engine ------------------------------ *)

type msg = Ping | Pong | Data of int

let tag_of = function Ping -> "ping" | Pong -> "pong" | Data _ -> "data"

let mk_engine ?(delta = 10) ?(sigma = 0) ?(seed = 1) () =
  let network =
    Network.create (Network.Synchronous { delta }) (Rng.create ~seed:(seed + 1))
  in
  Engine.create ~tag_of ~network ~sigma ~seed ()

let engine_tests =
  [
    Alcotest.test_case "message delivery triggers handler" `Quick (fun () ->
        let e = mk_engine () in
        let got = ref None in
        let p0 =
          {
            Engine.on_start = (fun ctx -> Engine.send ctx ~dst:1 (Data 42));
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        let p1 =
          {
            Engine.on_start = (fun _ -> ());
            on_receive =
              (fun _ ~src m ->
                match m with Data v -> got := Some (src, v) | _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        ignore (Engine.add_process e p0);
        ignore (Engine.add_process e p1);
        check Alcotest.bool "quiescent" true (Engine.run e = Engine.Quiescent);
        check Alcotest.(option (pair int int)) "got" (Some (0, 42)) !got);
    Alcotest.test_case "timer fires at the drifted local deadline" `Quick
      (fun () ->
        let e = mk_engine () in
        let fired_at = ref (-1) in
        let clock = Clock.create ~num:2 ~den:1 () in
        let p =
          {
            Engine.on_start =
              (fun ctx -> Engine.set_timer ctx ~deadline:100 ~label:"t");
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer =
              (fun ctx ~label:_ -> fired_at := Engine.local_now ctx);
          }
        in
        ignore (Engine.add_process e ~clock p);
        ignore (Engine.run e);
        (* rate 2: local 100 reached at global 50; local reading >= 100 *)
        check Alcotest.bool "fired" true (!fired_at >= 100 && !fired_at <= 101));
    Alcotest.test_case "cancel_timer suppresses firing" `Quick (fun () ->
        let e = mk_engine () in
        let fired = ref false in
        let p =
          {
            Engine.on_start =
              (fun ctx ->
                Engine.set_timer_after ctx ~after:10 ~label:"t";
                Engine.cancel_timer ctx ~label:"t");
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> fired := true);
          }
        in
        ignore (Engine.add_process e p);
        ignore (Engine.run e);
        check Alcotest.bool "not fired" false !fired);
    Alcotest.test_case "re-arming replaces the previous deadline" `Quick
      (fun () ->
        let e = mk_engine () in
        let count = ref 0 in
        let p =
          {
            Engine.on_start =
              (fun ctx ->
                Engine.set_timer_after ctx ~after:10 ~label:"t";
                Engine.set_timer_after ctx ~after:20 ~label:"t");
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> incr count);
          }
        in
        ignore (Engine.add_process e p);
        ignore (Engine.run e);
        check Alcotest.int "fires once" 1 !count);
    Alcotest.test_case "halted process ignores deliveries" `Quick (fun () ->
        let e = mk_engine () in
        let received = ref 0 in
        let sender =
          {
            Engine.on_start =
              (fun ctx ->
                Engine.send ctx ~dst:1 Ping;
                Engine.send ctx ~dst:1 Ping);
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        let quitter =
          {
            Engine.on_start = (fun _ -> ());
            on_receive =
              (fun ctx ~src:_ _ ->
                incr received;
                Engine.halt ctx);
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        ignore (Engine.add_process e sender);
        ignore (Engine.add_process e quitter);
        ignore (Engine.run e);
        check Alcotest.int "one delivery" 1 !received);
    Alcotest.test_case "identical seeds give identical traces" `Quick
      (fun () ->
        let build () =
          let e = mk_engine ~seed:33 () in
          let p0 =
            {
              Engine.on_start =
                (fun ctx ->
                  for i = 1 to 10 do
                    Engine.send ctx ~dst:1 (Data i)
                  done);
              on_receive = (fun _ ~src:_ _ -> ());
              on_timer = (fun _ ~label:_ -> ());
            }
          in
          let p1 =
            {
              Engine.on_start = (fun _ -> ());
              on_receive =
                (fun ctx ~src _ -> Engine.send ctx ~dst:src Pong);
              on_timer = (fun _ ~label:_ -> ());
            }
          in
          ignore (Engine.add_process e p0);
          ignore (Engine.add_process e p1);
          ignore (Engine.run e);
          List.map
            (function
              | Trace.Delivered { t; src; dst; tag; _ } ->
                  Printf.sprintf "%d:%d->%d:%s" t src dst tag
              | _ -> "")
            (Trace.to_list (Engine.trace e))
        in
        check Alcotest.(list string) "equal traces" (build ()) (build ()));
    Alcotest.test_case "horizon stops the run" `Quick (fun () ->
        let e = mk_engine () in
        let p =
          {
            Engine.on_start =
              (fun ctx -> Engine.set_timer_after ctx ~after:1_000 ~label:"t");
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer =
              (fun ctx ~label:_ ->
                Engine.set_timer_after ctx ~after:1_000 ~label:"t");
          }
        in
        ignore (Engine.add_process e p);
        check Alcotest.bool "horizon" true
          (Engine.run ~horizon:5_000 e = Engine.Horizon_reached));
    Alcotest.test_case "event limit stops the run" `Quick (fun () ->
        let e = mk_engine () in
        let p0 =
          {
            Engine.on_start = (fun ctx -> Engine.send ctx ~dst:1 Ping);
            on_receive = (fun ctx ~src _ -> Engine.send ctx ~dst:src Pong);
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        let p1 =
          {
            Engine.on_start = (fun _ -> ());
            on_receive = (fun ctx ~src _ -> Engine.send ctx ~dst:src Ping);
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        ignore (Engine.add_process e p0);
        ignore (Engine.add_process e p1);
        check Alcotest.bool "limit" true
          (Engine.run ~max_events:50 e = Engine.Event_limit));
    Alcotest.test_case "observations land in the trace" `Quick (fun () ->
        let e = mk_engine () in
        let p =
          {
            Engine.on_start = (fun ctx -> Engine.observe ctx Ping);
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        ignore (Engine.add_process e p);
        ignore (Engine.run e);
        check Alcotest.int "one obs" 1
          (List.length (Trace.observations (Engine.trace e))));
    Alcotest.test_case "sigma delays departures" `Quick (fun () ->
        let e = mk_engine ~sigma:5 ~delta:1 () in
        let p0 =
          {
            Engine.on_start = (fun ctx -> Engine.send ctx ~dst:1 Ping);
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        ignore (Engine.add_process e p0);
        ignore (Engine.add_process e Engine.silent);
        ignore (Engine.run e);
        let t =
          List.find_map
            (function Trace.Delivered { t; _ } -> Some t | _ -> None)
            (Trace.to_list (Engine.trace e))
        in
        check Alcotest.bool "within sigma+delta" true
          (match t with Some t -> t >= 1 && t <= 6 | None -> false));
    Alcotest.test_case "base offsets rebase pid, send and delivery src" `Quick
      (fun () ->
        (* two blocks of two processes each; the same handler code runs in
           both, always speaking logical pids 0/1 *)
        let e = mk_engine () in
        let log = ref [] in
        let talker =
          {
            Engine.on_start =
              (fun ctx ->
                if Engine.pid ctx = 0 then Engine.send ctx ~dst:1 (Data 7));
            on_receive =
              (fun ctx ~src m ->
                match m with
                | Data v -> log := (Engine.pid ctx, src, v) :: !log
                | _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        for block = 0 to 1 do
          for _l = 0 to 1 do
            ignore (Engine.add_process e ~base:(block * 2) talker)
          done
        done;
        check Alcotest.bool "quiescent" true (Engine.run e = Engine.Quiescent);
        check
          Alcotest.(list (triple int int int))
          "each block's logical pid 1 heard logical pid 0"
          [ (1, 0, 7); (1, 0, 7) ]
          (List.sort compare !log));
    Alcotest.test_case "send_absolute escapes the base" `Quick (fun () ->
        let e = mk_engine () in
        let got = ref None in
        let collector =
          {
            Engine.silent with
            Engine.on_receive =
              (fun _ ~src m ->
                match m with Data v -> got := Some (src, v) | _ -> ());
          }
        in
        let escapee =
          {
            Engine.silent with
            Engine.on_start = (fun ctx -> Engine.send_absolute ctx ~dst:0 (Data 9));
          }
        in
        ignore (Engine.add_process e collector);
        ignore (Engine.add_process e ~base:1 escapee);
        ignore (Engine.run e);
        (* collector has base 0, so the reported src is the engine pid *)
        check Alcotest.(option (pair int int)) "escaped" (Some (1, 9)) !got);
    Alcotest.test_case "set_clock re-anchors the local epoch" `Quick (fun () ->
        let e = mk_engine ~delta:1 () in
        let local = ref (-1) in
        let observerd =
          {
            Engine.silent with
            Engine.on_receive =
              (fun ctx ~src:_ _ -> local := Engine.local_now ctx);
          }
        in
        let pinger =
          {
            Engine.silent with
            Engine.on_start =
              (fun ctx ->
                Engine.set_timer_after ctx ~after:50 ~label:"late");
            on_timer = (fun ctx ~label:_ -> Engine.send ctx ~dst:1 Ping);
          }
        in
        ignore (Engine.add_process e pinger);
        ignore (Engine.add_process e observerd);
        (* re-anchor pid 1's clock to read 1000 at global time 0 *)
        Engine.set_clock e ~pid:1
          (Clock.create ~l0:1000 ~g0:0 ~num:1 ~den:1 ());
        ignore (Engine.run e);
        check Alcotest.bool "re-anchored local time" true (!local >= 1050));
  ]

let semantics_tests =
  [
    Alcotest.test_case "an earlier-armed timer beats a same-tick delivery"
      `Quick (fun () ->
        (* the escrow window rule v < u + a relies on this: when χ lands on
           the very tick the timer fires, the timer (armed long before)
           must be dispatched first *)
        let e = mk_engine ~delta:10 () in
        let order = ref [] in
        let p0 =
          {
            Engine.on_start =
              (fun ctx ->
                (* timer at t=10; message also arrives at t=10 *)
                Engine.set_timer ctx ~deadline:10 ~label:"window");
            on_receive = (fun _ ~src:_ _ -> order := "msg" :: !order);
            on_timer = (fun _ ~label:_ -> order := "timer" :: !order);
          }
        in
        let adversary ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds:_ = Some 10 in
        let network =
          Network.create ~adversary
            (Network.Synchronous { delta = 10 })
            (Rng.create ~seed:3)
        in
        let e2 = Engine.create ~tag_of ~network ~seed:4 () in
        ignore e;
        let _ = Engine.add_process e2 p0 in
        let _ =
          Engine.add_process e2
            {
              Engine.on_start = (fun ctx -> Engine.send ctx ~dst:0 Ping);
              on_receive = (fun _ ~src:_ _ -> ());
              on_timer = (fun _ ~label:_ -> ());
            }
        in
        ignore (Engine.run e2);
        check Alcotest.(list string) "timer first" [ "msg"; "timer" ] !order);
    Alcotest.test_case "same-tick sends dispatch in send order" `Quick
      (fun () ->
        let adversary ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds:_ = Some 5 in
        let network =
          Network.create ~adversary ~fifo:true
            (Network.Synchronous { delta = 10 })
            (Rng.create ~seed:3)
        in
        let e = Engine.create ~tag_of ~network ~seed:4 () in
        let got = ref [] in
        let _ =
          Engine.add_process e
            {
              Engine.on_start =
                (fun ctx ->
                  Engine.send ctx ~dst:1 (Data 1);
                  Engine.send ctx ~dst:1 (Data 2);
                  Engine.send ctx ~dst:1 (Data 3));
              on_receive = (fun _ ~src:_ _ -> ());
              on_timer = (fun _ ~label:_ -> ());
            }
        in
        let _ =
          Engine.add_process e
            {
              Engine.on_start = (fun _ -> ());
              on_receive =
                (fun _ ~src:_ m ->
                  match m with Data v -> got := v :: !got | _ -> ());
              on_timer = (fun _ ~label:_ -> ());
            }
        in
        ignore (Engine.run e);
        check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !got));
    qcheck
      (QCheck.Test.make ~name:"async delays respect the cap" ~count:60
         QCheck.small_int
         (fun seed ->
           let model = Network.Asynchronous { mean = 100; cap = 5_000 } in
           let t = Network.create ~fifo:false model (Rng.create ~seed) in
           let ok = ref true in
           for k = 0 to 50 do
             let at =
               Network.delivery_time t ~send_time:(k * 10) ~src:0 ~dst:1 ~tag:"x"
             in
             if at - (k * 10) > 5_000 || at <= k * 10 then ok := false
           done;
           !ok));
    qcheck
      (QCheck.Test.make
         ~name:"interleaved pops match a model" ~count:100
         QCheck.(list (pair (int_bound 100) bool))
         (fun ops ->
           (* push every op's event, popping after those whose bool says
              so; each pop must return the model's earliest (time, index)
              and the final drain the rest in order *)
           let q = Event_queue.create () in
           let model = ref [] in
           let earliest () =
             match List.sort compare !model with
             | [] -> None
             | (t, i) :: rest ->
                 model := rest;
                 Some (t, i)
           in
           List.for_all
             (fun (i, (time, pop)) ->
               Event_queue.push q ~time i;
               model := (time, i) :: !model;
               (not pop) || Event_queue.pop q = earliest ())
             (List.mapi (fun i op -> (i, op)) ops)
           && pop_all q = List.sort compare !model));
  ]

(* Timer semantics: every case below must fire each armed deadline once,
   at the right global time, and nothing else. *)
let fires ?(setup = fun _ -> ()) ~on_start ~on_timer () =
  let e = mk_engine () in
  let fired = ref [] in
  let p =
    {
      Engine.on_start;
      on_receive = (fun _ ~src:_ _ -> ());
      on_timer =
        (fun ctx ~label ->
          fired := (label, Engine.now e) :: !fired;
          on_timer ctx ~label);
    }
  in
  ignore (Engine.add_process e p);
  setup e;
  ignore (Engine.run e);
  List.rev !fired

let timer_tests =
  [
    Alcotest.test_case "re-arming fires only the last deadline" `Quick
      (fun () ->
        check
          Alcotest.(list (pair string int))
          "fires"
          [ ("t", 30); ("u", 40) ]
          (fires
             ~on_start:(fun ctx ->
               Engine.set_timer ctx ~deadline:10 ~label:"t";
               Engine.set_timer ctx ~deadline:40 ~label:"u";
               Engine.set_timer ctx ~deadline:50 ~label:"t";
               Engine.set_timer ctx ~deadline:30 ~label:"t")
             ~on_timer:(fun _ ~label:_ -> ())
             ()));
    Alcotest.test_case "cancel then re-arm fires the new deadline once"
      `Quick (fun () ->
        check
          Alcotest.(list (pair string int))
          "fires"
          [ ("t", 25) ]
          (fires
             ~on_start:(fun ctx ->
               Engine.set_timer ctx ~deadline:10 ~label:"t";
               Engine.cancel_timer ctx ~label:"t";
               Engine.cancel_timer ctx ~label:"t";
               Engine.set_timer ctx ~deadline:25 ~label:"t")
             ~on_timer:(fun _ ~label:_ -> ())
             ()));
    Alcotest.test_case "a handler re-arms its own label while firing" `Quick
      (fun () ->
        let rounds = ref 0 in
        check
          Alcotest.(list (pair string int))
          "fires"
          [ ("t", 10); ("t", 25); ("t", 40) ]
          (fires
             ~on_start:(fun ctx -> Engine.set_timer ctx ~deadline:10 ~label:"t")
             ~on_timer:(fun ctx ~label ->
               incr rounds;
               if !rounds < 3 then
                 Engine.set_timer_after ctx ~after:15 ~label
               else
                 (* re-arm, then cancel inside the same firing *)
                 (Engine.set_timer_after ctx ~after:15 ~label;
                  Engine.cancel_timer ctx ~label))
             ()));
    Alcotest.test_case "a fire deferred across an outage fires once" `Quick
      (fun () ->
        check
          Alcotest.(list (pair string int))
          "fires"
          [ ("t", 50); ("u", 60) ]
          (fires
             ~setup:(fun e ->
               Engine.schedule_crash e ~pid:0 ~at:5 ~recover_at:50 ())
             ~on_start:(fun ctx ->
               Engine.set_timer ctx ~deadline:10 ~label:"t";
               Engine.set_timer ctx ~deadline:20 ~label:"c";
               Engine.set_timer ctx ~deadline:60 ~label:"u")
             ~on_timer:(fun ctx ~label ->
               (* the deferred "c" is cancelled by the first handler that
                  runs after the reboot, so it must never fire *)
               if label = "t" then Engine.cancel_timer ctx ~label:"c")
             ()));
    Alcotest.test_case "a halted process's timer is not deferred to its reboot"
      `Quick (fun () ->
        let e = mk_engine () in
        ignore
          (Engine.add_process e
             {
               Engine.on_start =
                 (fun ctx ->
                   Engine.set_timer ctx ~deadline:10 ~label:"t";
                   Engine.halt ctx);
               on_receive = (fun _ ~src:_ _ -> ());
               on_timer =
                 (fun _ ~label:_ -> Alcotest.fail "a halted process fired");
             });
        Engine.schedule_crash e ~pid:0 ~at:5 ~recover_at:50 ();
        ignore (Engine.run e);
        (* the crash, the firing spent at 10 and the recovery; no fourth
           event re-queued to the reboot only to go stale there *)
        check Alcotest.int "events" 3 (Engine.events_processed e));
    Alcotest.test_case "a fire during a permanent crash never runs" `Quick
      (fun () ->
        check
          Alcotest.(list (pair string int))
          "fires" []
          (fires
             ~setup:(fun e -> Engine.schedule_crash e ~pid:0 ~at:5 ())
             ~on_start:(fun ctx -> Engine.set_timer ctx ~deadline:10 ~label:"t")
             ~on_timer:(fun _ ~label:_ -> ())
             ()));
    Alcotest.test_case "cancel_timer takes the fire out of the queue" `Quick
      (fun () ->
        let e = mk_engine () in
        let depths = ref [] in
        let depth () = depths := Engine.queue_depth e :: !depths in
        ignore
          (Engine.add_process e
             {
               Engine.on_start =
                 (fun ctx ->
                   Engine.set_timer ctx ~deadline:10 ~label:"a";
                   Engine.set_timer ctx ~deadline:20 ~label:"b";
                   depth ();
                   Engine.cancel_timer ctx ~label:"a";
                   depth ();
                   (* cancelling a disarmed label changes nothing *)
                   Engine.cancel_timer ctx ~label:"a";
                   depth ());
               on_receive = (fun _ ~src:_ _ -> ());
               on_timer = (fun _ ~label:_ -> ());
             });
        ignore (Engine.run e);
        check Alcotest.(list int) "depths" [ 2; 1; 1 ] (List.rev !depths);
        check Alcotest.int "only b popped" 1 (Engine.events_processed e));
    Alcotest.test_case "re-arming keeps one queued fire per label" `Quick
      (fun () ->
        let e = mk_engine () in
        let depths = ref [] in
        ignore
          (Engine.add_process e
             {
               Engine.on_start =
                 (fun ctx ->
                   List.iter
                     (fun (label, deadline) ->
                       Engine.set_timer ctx ~deadline ~label;
                       depths := Engine.queue_depth e :: !depths)
                     [ ("t", 10); ("u", 40); ("t", 50); ("t", 30); ("u", 5) ];
                   (* an infinite deadline disarms the label *)
                   Engine.set_timer ctx ~deadline:Sim_time.infinity ~label:"u";
                   depths := Engine.queue_depth e :: !depths);
               on_receive = (fun _ ~src:_ _ -> ());
               on_timer = (fun _ ~label:_ -> ());
             });
        ignore (Engine.run e);
        check Alcotest.(list int) "depths" [ 1; 2; 2; 2; 2; 1 ]
          (List.rev !depths);
        check Alcotest.int "one event" 1 (Engine.events_processed e));
  ]

let trace_tests =
  [
    Alcotest.test_case "jsonl export covers every entry kind" `Quick (fun () ->
        let tr : (string, string) Trace.t = Trace.create () in
        Trace.record tr (Trace.Sent { t = 1; src = 0; dst = 1; tag = "m"; msg = "hi" });
        Trace.record tr
          (Trace.Delivered
             {
               t = 2;
               sent_at = 1;
               src = 0;
               dst = 1;
               tag = "m";
               msg = "hi";
               sent_seq = 0;
             });
        Trace.record tr
          (Trace.Timer_set
             { t = 3; owner = 1; label = "w"; local_deadline = 9; global_fire = 10 });
        Trace.record tr
          (Trace.Timer_fired
             { t = 10; owner = 1; label = "w"; set_seq = 2; deferred = false });
        Trace.record tr (Trace.Observed { t = 11; pid = 1; obs = "done" });
        Trace.record tr (Trace.Halted { t = 12; pid = 1 });
        let out = Trace.to_jsonl ~msg:Fun.id ~obs:Fun.id tr in
        let lines = String.split_on_char '\n' (String.trim out) in
        check Alcotest.int "six lines" 6 (List.length lines);
        List.iter
          (fun l ->
            check Alcotest.bool "object" true
              (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
          lines);
    Alcotest.test_case "jsonl escapes quotes and control characters" `Quick
      (fun () ->
        let tr : (string, string) Trace.t = Trace.create () in
        Trace.record tr (Trace.Observed { t = 1; pid = 0; obs = "say \"hi\"\nplease" });
        let out = Trace.to_jsonl ~msg:Fun.id ~obs:Fun.id tr in
        let mem sub =
          let n = String.length sub and m = String.length out in
          let rec go i = i + n <= m && (String.sub out i n = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "escaped quote" true (mem {|\"hi\"|});
        check Alcotest.bool "escaped newline" true (mem {|\n|});
        check Alcotest.bool "no raw newline inside" true
          (not (mem "hi\"\nplease")));
    Alcotest.test_case "infinite deadlines serialize as strings" `Quick
      (fun () ->
        let tr : (string, string) Trace.t = Trace.create () in
        Trace.record tr
          (Trace.Timer_set
             {
               t = 0;
               owner = 0;
               label = "never";
               local_deadline = Sim_time.infinity;
               global_fire = Sim_time.infinity;
             });
        let out = Trace.to_jsonl ~msg:Fun.id ~obs:Fun.id tr in
        let mem sub =
          let n = String.length sub and m = String.length out in
          let rec go i = i + n <= m && (String.sub out i n = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "inf" true (mem {|"inf"|}));
    Alcotest.test_case "bounded trace keeps the newest window" `Quick (fun () ->
        let tr : (string, string) Trace.t = Trace.create ~capacity:3 () in
        for i = 1 to 5 do
          Trace.record tr (Trace.Observed { t = i; pid = 0; obs = string_of_int i })
        done;
        check Alcotest.int "dropped" 2 (Trace.length tr - List.length (Trace.to_list tr));
        check Alcotest.int "total length" 5 (Trace.length tr);
        let kept =
          List.filter_map
            (function Trace.Observed { obs; _ } -> Some obs | _ -> None)
            (Trace.to_list tr)
        in
        check Alcotest.(list string) "newest three" [ "3"; "4"; "5" ] kept);
    Alcotest.test_case "bounded jsonl numbers seq from the dropped count"
      `Quick (fun () ->
        let tr : (string, string) Trace.t = Trace.create ~capacity:2 () in
        for i = 1 to 5 do
          Trace.record tr (Trace.Observed { t = i; pid = 0; obs = string_of_int i })
        done;
        let line i =
          Printf.sprintf {|{"seq":%d,"kind":"observed","t":%d,"pid":0,"obs":"%d"}|}
            (i - 1) i i
        in
        check Alcotest.string "jsonl" (line 4 ^ "\n" ^ line 5 ^ "\n")
          (Trace.to_jsonl ~msg:Fun.id ~obs:Fun.id tr);
        check Alcotest.string "ring"
          (Printf.sprintf
             {|{"capacity":2,"recorded":5,"dropped":3,"window":[%s,%s]}|}
             (line 4) (line 5))
          (Trace.ring_json ~msg:Fun.id ~obs:Fun.id tr));
    Alcotest.test_case "bounded trace smaller than capacity drops nothing"
      `Quick (fun () ->
        let tr : (string, string) Trace.t = Trace.create ~capacity:10 () in
        Trace.record tr (Trace.Observed { t = 1; pid = 0; obs = "a" });
        check Alcotest.int "dropped" 0 (Trace.length tr - List.length (Trace.to_list tr));
        check Alcotest.int "kept" 1 (List.length (Trace.to_list tr)));
    Alcotest.test_case "zero cap keeps none, negative raises" `Quick
      (fun () ->
        let tr : (string, string) Trace.t = Trace.create ~capacity:0 () in
        let seen = ref 0 in
        Trace.on_record tr (fun _ -> incr seen);
        for i = 1 to 3 do
          Trace.record tr (Trace.Sent { t = i; src = 0; dst = 1; tag = "m"; msg = "" })
        done;
        check Alcotest.int "hook saw all" 3 !seen;
        check Alcotest.int "counted" 3 (Trace.length tr);
        check Alcotest.int "dropped" 3 (Trace.length tr - List.length (Trace.to_list tr));
        check Alcotest.int "kept" 0 (List.length (Trace.to_list tr));
        check Alcotest.int "messages counted" 3 (Trace.message_count tr);
        Alcotest.check_raises "negative"
          (Invalid_argument "Trace.create: capacity must be non-negative")
          (fun () -> ignore (Trace.create ~capacity:(-1) () : (unit, unit) Trace.t)));
    Alcotest.test_case "on_record hooks see every entry despite eviction"
      `Quick (fun () ->
        let tr : (string, string) Trace.t = Trace.create ~capacity:2 () in
        let seen = ref 0 in
        let order = ref [] in
        Trace.on_record tr (fun _ -> incr seen);
        Trace.on_record tr (fun _ -> order := "second" :: !order);
        for i = 1 to 7 do
          Trace.record tr (Trace.Observed { t = i; pid = 0; obs = "x" })
        done;
        check Alcotest.int "hook saw all" 7 !seen;
        check Alcotest.int "both hooks ran" 7 (List.length !order);
        check Alcotest.int "storage bounded" 2 (List.length (Trace.to_list tr)));
    Alcotest.test_case "message_count and last_time survive the ring" `Quick
      (fun () ->
        let tr : (string, string) Trace.t = Trace.create ~capacity:2 () in
        for i = 1 to 4 do
          Trace.record tr (Trace.Sent { t = i; src = 0; dst = 1; tag = "m"; msg = "" })
        done;
        check Alcotest.int "messages counted" 4 (Trace.message_count tr);
        check Alcotest.int "last time" 4 (Trace.last_time tr));
  ]


(* ------------------------------ Lifecycle ----------------------------- *)

(* Processes born during a run and retired once quiet: each must behave,
   byte for byte, as it would have had it existed all along. *)

let counter reg name = Metric_value.counter reg name

let lifecycle_engine ?sigma reg =
  let network =
    Network.create ~metrics:reg
      (Network.Synchronous { delta = 10 })
      (Rng.create ~seed:2)
  in
  Engine.create ?sigma ~tag_of ~network ~metrics:reg ~seed:1 ()

let idle =
  {
    Engine.on_start = (fun _ -> ());
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* a process that sends four messages to pid 0 as it starts: each departs
   after a computation delay drawn from the sender's own stream *)
let chatty =
  {
    idle with
    Engine.on_start =
      (fun ctx ->
        for k = 1 to 4 do
          Engine.send ctx ~dst:0 (Data k)
        done);
  }

(* the delivery times of a run, less [born] *)
let deliveries e ~born =
  List.filter_map
    (function Trace.Delivered { t; _ } -> Some (t - born) | _ -> None)
    (Trace.to_list (Engine.trace e))

(* pid 1 halts at once; pid 0 sends it two messages and (when [retire])
   retires it at time 0, before they land. Returns the trace and engine
   counters. *)
let halted_receiver ~retire =
  let reg = Obsv.Metrics.create () in
  let e = lifecycle_engine reg in
  ignore
    (Engine.add_process e
       {
         idle with
         Engine.on_start =
           (fun ctx ->
             Engine.set_timer ctx ~deadline:0 ~label:"retire";
             Engine.send ctx ~dst:1 (Data 1);
             Engine.send ctx ~dst:1 (Data 2));
         on_timer = (fun _ ~label:_ -> if retire then Engine.retire e 1);
       });
  ignore (Engine.add_process e { idle with Engine.on_start = Engine.halt });
  ignore (Engine.run e);
  ( Trace.to_list (Engine.trace e),
    List.map (counter reg)
      [ "xchain_messages_delivered_total"; "xchain_events_total" ] )

(* Pid 1 sends to the idle pid 0 (drawing its computation delay), is
   crashed at 1 and back at 2, and halts at its timer; pid 3 crashes at 50,
   before any birth, and stays down. The engine runs to its end, pid 1
   retires, and [born] gives pid 3 its process: returns pid 3's record. *)
let pid3_after_run born =
  let reg = Obsv.Metrics.create () in
  let e = lifecycle_engine ~sigma:5 reg in
  ignore (Engine.add_process e idle);
  ignore
    (Engine.add_process e
       {
         idle with
         Engine.on_start =
           (fun ctx ->
             Engine.send ctx ~dst:0 (Data 1);
             Engine.set_timer ctx ~deadline:5 ~label:"t");
         on_timer = (fun ctx ~label:_ -> Engine.halt ctx);
       });
  Engine.reserve_pids e 4;
  Engine.schedule_crash e ~pid:1 ~at:1 ~recover_at:2 ();
  Engine.schedule_crash e ~pid:3 ~at:50 ();
  let old = Engine.record e 1 in
  ignore (Engine.run e);
  Engine.retire e 1;
  born e old;
  Engine.record e 3

let lifecycle_tests =
  [
    Alcotest.test_case "a reborn record is what a birth at its pid makes"
      `Quick (fun () ->
        let reborn =
          pid3_after_run (fun e old ->
              check Alcotest.bool "spent once retired" true (Engine.spent old);
              Engine.reborn e old ~pid:3 ~base:3 idle)
        in
        let born =
          pid3_after_run (fun e _ ->
              ignore (Engine.add_process e ~pid:3 ~base:3 idle))
        in
        check Alcotest.string "same state" (Engine.record_summary born)
          (Engine.record_summary reborn);
        check Alcotest.int "its new pid" 0 (Engine.pid reborn));
    Alcotest.test_case "only a spent record of this engine is reborn" `Quick
      (fun () ->
        let e = lifecycle_engine (Obsv.Metrics.create ()) in
        ignore (Engine.add_process e idle);
        let live = Engine.record e 0 in
        check Alcotest.bool "a live record is not spent" false
          (Engine.spent live);
        (match Engine.reborn e live ~pid:1 idle with
        | () -> Alcotest.fail "reborn took a live record"
        | exception Invalid_argument _ -> ());
        Engine.retire e 0;
        let other = lifecycle_engine (Obsv.Metrics.create ()) in
        match Engine.reborn other live ~pid:1 idle with
        | () -> Alcotest.fail "reborn took another engine's record"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "a memo builds once per key, and racing domains agree"
      `Quick (fun () ->
        let module M = Map.Make (Int) in
        let memo = Atomic.make M.empty and builds = Atomic.make 0 in
        let get k =
          Memo.find_or_add M.find_opt M.add memo k (fun () ->
              Atomic.incr builds;
              ref k)
        in
        let a = get 1 in
        check Alcotest.bool "a hit is the first build" true (get 1 == a);
        check Alcotest.int "one build" 1 (Atomic.get builds);
        (* two domains add keys 2..201 at once: every key lands, and each
           domain's later lookups see the published value *)
        let fill () = List.init 200 (fun i -> !(get (i + 2))) in
        let d = Domain.spawn fill in
        let mine = fill () in
        let theirs = Domain.join d in
        check Alcotest.(list int) "both domains read every key" mine theirs;
        check Alcotest.int "every key published" 201
          (M.cardinal (Atomic.get memo));
        for k = 1 to 201 do
          check Alcotest.bool "stable after the race" true (get k == get k)
        done);
    Alcotest.test_case "engines on alternating registries count into their own"
      `Quick (fun () ->
        (* the engine and network resolve their handles once per registry:
           switching registries back and forth must still land every
           count in the registry the engine was created with *)
        let run reg =
          let e = lifecycle_engine reg in
          ignore (Engine.add_process e idle);
          ignore (Engine.add_process e chatty);
          ignore (Engine.run e);
          Engine.events_processed e
        in
        let r1 = Obsv.Metrics.create () and r2 = Obsv.Metrics.create () in
        let a = run r1 in
        let b = run r2 in
        let c = run r1 in
        check Alcotest.int "r1: both of its runs" (a + c)
          (counter r1 "xchain_events_total");
        check Alcotest.int "r2: its own run" b (counter r2 "xchain_events_total");
        check Alcotest.int "r1: eight sends" 8
          (counter r1 "xchain_messages_sent_total");
        check Alcotest.int "r2: four sends" 4
          (counter r2 "xchain_messages_sent_total"));
    qcheck
      (QCheck.Test.make ~name:"split_nth k is the (k+1)-th split" ~count:200
         QCheck.(pair small_int (int_bound 300))
         (fun (seed, k) ->
           let root = Rng.create ~seed in
           let jumped = Rng.split_nth root k in
           let g = Rng.copy root in
           let child = ref (Rng.split g) in
           for _ = 1 to k do
             child := Rng.split g
           done;
           List.init 4 (fun _ -> Rng.next_int64 jumped)
           = List.init 4 (fun _ -> Rng.next_int64 !child)));
    Alcotest.test_case "mid-run births draw set-up streams" `Quick (fun () ->
        (* pid 5 as the sixth process added before the run ... *)
        let sigma = 1_000 in
        let e = lifecycle_engine ~sigma (Obsv.Metrics.create ()) in
        for _ = 0 to 4 do
          ignore (Engine.add_process e idle)
        done;
        ignore (Engine.add_process e chatty);
        ignore (Engine.run e);
        let setup = deliveries e ~born:0 in
        (* ... and born at pid 5 from a timer, long after the start *)
        let e = lifecycle_engine ~sigma (Obsv.Metrics.create ()) in
        ignore
          (Engine.add_process e
             {
               idle with
               Engine.on_start =
                 (fun ctx -> Engine.set_timer ctx ~deadline:50 ~label:"birth");
               on_timer =
                 (fun _ ~label:_ ->
                   ignore (Engine.add_process e ~pid:5 chatty));
             });
        ignore (Engine.run e);
        check Alcotest.int "four deliveries" 4 (List.length setup);
        check Alcotest.(list int) "same stream" setup (deliveries e ~born:50));
    Alcotest.test_case "retired halted pid records its deliveries" `Quick
      (fun () ->
        let kept, kept_counts = halted_receiver ~retire:false in
        let retired, retired_counts = halted_receiver ~retire:true in
        let delivered =
          List.filter (function Trace.Delivered _ -> true | _ -> false)
        in
        check Alcotest.int "two deliveries" 2 (List.length (delivered kept));
        check Alcotest.bool "same entries" true (kept = retired);
        check Alcotest.(list int) "same counters" kept_counts retired_counts);
    Alcotest.test_case "a fire on a retired pid is stale" `Quick (fun () ->
        let reg = Obsv.Metrics.create () in
        let e = lifecycle_engine reg in
        let ran = ref false and quiet = ref false in
        ignore
          (Engine.add_process e
             {
               Engine.on_start =
                 (fun ctx ->
                   Engine.set_timer ctx ~deadline:40 ~label:"late";
                   Engine.cancel_timer ctx ~label:"late";
                   Engine.set_timer ctx ~deadline:30 ~label:"other";
                   Engine.halt ctx);
               on_receive = (fun _ ~src:_ _ -> ());
               on_timer = (fun _ ~label:_ -> ran := true);
             });
        ignore
          (Engine.add_process e
             {
               idle with
               Engine.on_start =
                 (fun ctx -> Engine.set_timer ctx ~deadline:0 ~label:"retire");
               on_timer =
                 (fun _ ~label:_ ->
                   quiet := Engine.quiet e 0;
                   Engine.retire e 0);
             });
        ignore (Engine.run e);
        check Alcotest.bool "halted is quiet" true !quiet;
        check Alcotest.bool "no handler ran" false !ran;
        (* the cancelled "late" never pops; "other" pops on a halted,
           retired pid *)
        check Alcotest.int "one firing stale" 1
          (counter reg "xchain_timers_stale_total");
        check Alcotest.int "only the retiring timer fired" 1
          (counter reg "xchain_timers_fired_total"));
    Alcotest.test_case "running a retired handler raises" `Quick (fun () ->
        let e = lifecycle_engine (Obsv.Metrics.create ()) in
        let quiet = ref true in
        ignore
          (Engine.add_process e
             {
               idle with
               Engine.on_start =
                 (fun ctx ->
                   Engine.send ctx ~dst:1 Ping;
                   quiet := Engine.quiet e 1;
                   Engine.retire e 1);
             });
        ignore (Engine.add_process e idle);
        Alcotest.check_raises "delivery"
          (Invalid_argument
             "Engine: a delivery would run the handler of retired pid 1")
          (fun () -> ignore (Engine.run e));
        check Alcotest.bool "a queued delivery is not quiet" false !quiet);
    Alcotest.test_case "a retired pid with cancelled timers is dropped" `Quick
      (fun () ->
        let reg = Obsv.Metrics.create () in
        let e = lifecycle_engine reg in
        let dropped = ref false in
        ignore
          (Engine.add_process e
             {
               idle with
               Engine.on_start =
                 (fun ctx ->
                   Engine.set_timer ctx ~deadline:40 ~label:"a";
                   Engine.set_timer ctx ~deadline:90 ~label:"b";
                   Engine.cancel_timer ctx ~label:"a";
                   Engine.cancel_timer ctx ~label:"b");
             });
        ignore
          (Engine.add_process e
             {
               idle with
               Engine.on_start =
                 (fun ctx -> Engine.set_timer ctx ~deadline:0 ~label:"retire");
               on_timer =
                 (fun _ ~label:_ ->
                   Engine.retire e 0;
                   (* nothing is queued for pid 0, so its record goes at
                      once *)
                   dropped :=
                     match Engine.clock_of e 0 with
                     | _ -> false
                     | exception Invalid_argument _ -> true);
             });
        ignore (Engine.run e);
        check Alcotest.bool "dropped at retire" true !dropped;
        check Alcotest.int "no stale firing" 0
          (counter reg "xchain_timers_stale_total");
        check Alcotest.int "only the retiring event" 1
          (Engine.events_processed e));
    Alcotest.test_case "forgetting links keeps live FIFO clamps" `Quick
      (fun () ->
        (* "slow" takes 100 ticks, "fast" 1: a fast send right behind a
           slow one on the same link is held to the slow one's arrival *)
        let adversary ~send_time:_ ~src:_ ~dst:_ ~tag ~bounds:_ =
          Some (if tag = "slow" then 100 else 1)
        in
        let net () =
          Network.create ~adversary ~metrics:(Obsv.Metrics.create ())
            (Network.Synchronous { delta = 100 })
            (Rng.create ~seed:3)
        in
        let send n ~src ~dst tag =
          Network.delivery_time n ~send_time:0 ~src ~dst ~tag
        in
        let kept = net () and dropped = net () in
        List.iter
          (fun n ->
            ignore (send n ~src:1 ~dst:2 "slow");
            ignore (send n ~src:7 ~dst:8 "slow"))
          [ kept; dropped ];
        Network.forget_link dropped ~src:7 ~dst:8;
        check Alcotest.int "live link still held"
          (send kept ~src:1 ~dst:2 "fast")
          (send dropped ~src:1 ~dst:2 "fast");
        check Alcotest.int "held behind the slow send" 100
          (send dropped ~src:1 ~dst:2 "fast");
        check Alcotest.int "forgotten link starts afresh" 1
          (send dropped ~src:7 ~dst:8 "fast"));
    Alcotest.test_case "timer series fires like set_timer calls" `Quick
      (fun () ->
        let deadlines = [ 10; 20; 20; 35 ] in
        let run series =
          let e = lifecycle_engine (Obsv.Metrics.create ()) in
          let depth = ref 0 in
          ignore
            (Engine.add_process e
               {
                 idle with
                 Engine.on_start =
                   (fun ctx ->
                     if series then
                       Engine.set_timer_series ctx
                         ~deadlines:(List.to_seq deadlines)
                         ~label:(Printf.sprintf "s%d")
                     else
                       List.iteri
                         (fun k d ->
                           Engine.set_timer ctx ~deadline:d
                             ~label:(Printf.sprintf "s%d" k))
                         deadlines;
                     (* a same-tick rival armed after the series *)
                     Engine.set_timer ctx ~deadline:20 ~label:"rival");
                 on_timer =
                   (fun ctx ~label ->
                     if label = "s0" then begin
                       depth := Engine.queue_depth e;
                       Engine.send ctx ~dst:0 Ping
                     end);
               });
          ignore (Engine.run e);
          (!depth, Trace.to_list (Engine.trace e))
        in
        let d1, plain = run false and d2, series = run true in
        check Alcotest.int "queue depth after s0" 4 d1;
        check Alcotest.int "queue depth counts the series" d1 d2;
        check Alcotest.bool "same trace" true (plain = series));
  ]

(* ---------------------------- Causal_fold ------------------------------ *)

module C = Obsv.Causal

(* An engine whose graph is folded from its trace. [handlers] get the
   fold, so they can add notes. *)
let folded ?tamper ?(setup = fun _ -> ()) handlers =
  let network =
    Network.create ?tamper (Network.Synchronous { delta = 10 })
      (Rng.create ~seed:2)
  in
  let e = Engine.create ~tag_of ~network ~seed:1 () in
  let c = C.create () in
  let f = Causal_fold.attach e c in
  List.iter (fun h -> ignore (Engine.add_process e (h f))) handlers;
  setup e;
  ignore (Engine.run e);
  (e, c)

let nodes_of c kind =
  List.filter (fun i -> C.kind_of c i = kind)
    (List.init (C.node_count c) Fun.id)

let preds_of c kind i =
  List.filter_map
    (fun (k, s) -> if k = kind then Some s else None)
    (C.preds c i)

let causal_fold_tests =
  [
    Alcotest.test_case "each deliver has one message pred, its send" `Quick
      (fun () ->
        (* pid 0 tags its sends with a note; data is duplicated in flight
           and pid 2 is down while some copies land *)
        let tamper ~send_time:_ ~src:_ ~dst:_ ~tag =
          if tag = "data" then Network.[ Intact; Intact ]
          else Network.[ Intact ]
        in
        let sender f =
          {
            idle with
            Engine.on_start =
              (fun ctx ->
                ignore (Causal_fold.note f ~pid:0 ~trace:7 ~label:"go" ());
                for v = 1 to 3 do
                  Engine.send ctx ~dst:1 (Data v);
                  Engine.send ctx ~dst:2 (Data v)
                done);
          }
        in
        let replier _ =
          {
            idle with
            Engine.on_receive =
              (fun ctx ~src _ -> Engine.send ctx ~dst:src Pong);
          }
        in
        let e, c =
          folded ~tamper
            ~setup:(fun e ->
              Engine.schedule_crash e ~pid:2 ~at:0 ~recover_at:8 ())
            [ sender; replier; replier ]
        in
        let delivered =
          List.filter_map
            (function
              | Trace.Delivered { src; sent_at; _ } -> Some (src, sent_at)
              | _ -> None)
            (Trace.to_list (Engine.trace e))
        in
        let delivers = nodes_of c C.Deliver in
        check Alcotest.int "a node per delivered entry" (List.length delivered)
          (List.length delivers);
        let sources = List.concat_map (preds_of c C.Message) delivers in
        check Alcotest.bool "some send delivered twice" true
          (List.length (List.sort_uniq compare sources) < List.length sources);
        (* six data sends, two copies each, and one pong per data copy *)
        let pongs = List.length (nodes_of c C.Send) - 6 in
        check Alcotest.bool "some copies dropped at the down pid" true
          (List.length delivers < (2 * 6) + pongs);
        List.iter2
          (fun d (src, sent_at) ->
            match preds_of c C.Message d with
            | [ s ] ->
                check Alcotest.bool "from a send" true (C.kind_of c s = C.Send);
                check Alcotest.int "by the entry's sender" src (C.pid_of c s);
                check Alcotest.int "at the entry's send time" sent_at
                  (C.time_of c s);
                check Alcotest.int "same payment tag" (C.trace_of c s)
                  (C.trace_of c d)
            | l ->
                Alcotest.failf "deliver %d has %d message preds" d
                  (List.length l))
          delivers delivered;
        check Alcotest.bool "the note's tag rides every message" true
          (List.for_all (fun d -> C.trace_of c d = 7) delivers));
    Alcotest.test_case "the k-th tick of a series links to its k-th arming"
      `Quick (fun () ->
        let deadlines = [ 10; 20; 20; 35; 50 ] in
        let ticker _ =
          {
            idle with
            Engine.on_start =
              (fun ctx ->
                Engine.set_timer ctx ~deadline:20 ~label:"tick";
                Engine.set_timer_series ctx ~deadlines:(List.to_seq deadlines)
                  ~label:(fun _ -> "tick"));
          }
        in
        let _, c = folded [ ticker ] in
        let sets = nodes_of c C.Timer_set and fires = nodes_of c C.Timer_fire in
        (* the plain arming, then the series' five, all labelled alike *)
        check Alcotest.int "six arms" 6 (List.length sets);
        check Alcotest.int "six firings" 6 (List.length fires);
        let series = List.tl sets in
        let series_fires =
          List.filter (fun n -> preds_of c C.Timer n <> [ List.hd sets ]) fires
        in
        check Alcotest.(list int) "k-th firing from k-th arming" series
          (List.concat_map (preds_of c C.Timer) series_fires);
        check Alcotest.(list int) "at the k-th deadline" deadlines
          (List.map (C.time_of c) series_fires));
    Alcotest.test_case "a deferred firing gets the outage edge" `Quick
      (fun () ->
        let sleeper _ =
          {
            idle with
            Engine.on_start =
              (fun ctx ->
                Engine.set_timer ctx ~deadline:10 ~label:"early";
                Engine.set_timer ctx ~deadline:60 ~label:"late");
          }
        in
        let _, c =
          folded
            ~setup:(fun e ->
              Engine.schedule_crash e ~pid:0 ~at:5 ~recover_at:50 ())
            [ sleeper ]
        in
        let crash, reboot =
          match (nodes_of c C.Crash, nodes_of c C.Recover) with
          | [ x ], [ r ] -> (x, r)
          | _ -> Alcotest.fail "one crash and one recovery expected"
        in
        check Alcotest.(list int) "recovery after its crash" [ crash ]
          (preds_of c C.Outage reboot);
        match nodes_of c C.Timer_fire with
        | [ early; late ] ->
            check Alcotest.string "deferred" "early" (C.label_of c early);
            check Alcotest.int "fires at the reboot" 50 (C.time_of c early);
            check Alcotest.(list int) "outage edge from the reboot" [ reboot ]
              (preds_of c C.Outage early);
            check Alcotest.(list int) "live firing: no outage edge" []
              (preds_of c C.Outage late)
        | l -> Alcotest.failf "%d firings" (List.length l));
    Alcotest.test_case "attaching after the first entry is refused" `Quick
      (fun () ->
        let e = mk_engine () in
        ignore
          (Engine.add_process e
             {
               idle with
               Engine.on_start = (fun ctx -> Engine.send ctx ~dst:0 Ping);
             });
        ignore (Causal_fold.attach e (C.create ()));
        ignore (Engine.run e);
        match Causal_fold.attach e (C.create ()) with
        | _ -> Alcotest.fail "attached to a trace with entries"
        | exception Invalid_argument _ -> ());
  ]

let () =
  Alcotest.run "sim"
    [
      ("sim_time", time_tests);
      ("rng", rng_tests);
      ("event_queue", queue_tests);
      ("clock", clock_tests);
      ("stats", stats_tests);
      ("network", network_tests);
      ("engine", engine_tests);
      ("semantics", semantics_tests);
      ("timers", timer_tests);
      ("trace", trace_tests);
      ("lifecycle", lifecycle_tests);
      ("causal_fold", causal_fold_tests);
    ]

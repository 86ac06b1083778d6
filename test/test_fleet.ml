(* Tests for the fleet: chunked work-sharing over OCaml domains. The
   load-bearing claim is the determinism contract — merged results are a
   function of the job batch alone, never of the domain count — plus
   failure isolation (a raising job is a tagged result, not a dead pool)
   and the accounting invariants behind the per-domain metrics. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Strip the one nondeterministic JSON member, mirroring the cram tests'
   and CI's sed 's/,"timing":{[^}]*}//g' (the timing object is flat, so
   scanning to the first closing brace is exact). *)
let strip_timing s =
  let marker = {|,"timing":{|} in
  let mlen = String.length marker in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if !i + mlen <= n && String.sub s !i mlen = marker then begin
      let j = ref (!i + mlen) in
      while !j < n && s.[!j] <> '}' do
        incr j
      done;
      i := !j + 1
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let ok_exn = function
  | Ok v -> v
  | Error (f : Fleet.failure) -> Alcotest.failf "job %d failed: %s" f.Fleet.job f.Fleet.message

(* ------------------------------ mechanics ------------------------------ *)

let mechanics_tests =
  [
    Alcotest.test_case "results land at their job index" `Quick (fun () ->
        let outcomes, stats = Fleet.run ~domains:3 ~jobs:100 (fun i -> i * i) in
        Array.iteri
          (fun i o -> check Alcotest.int "slot" (i * i) (ok_exn o))
          outcomes;
        check Alcotest.int "jobs" 100 stats.Fleet.jobs;
        check Alcotest.int "failed" 0 stats.Fleet.failed);
    Alcotest.test_case "empty batch" `Quick (fun () ->
        let outcomes, stats = Fleet.run ~domains:4 ~jobs:0 (fun i -> i) in
        check Alcotest.int "no results" 0 (Array.length outcomes);
        check Alcotest.int "one domain" 1 stats.Fleet.cost.domains);
    Alcotest.test_case "domains clamp to jobs" `Quick (fun () ->
        let _, stats = Fleet.run ~domains:8 ~jobs:3 (fun i -> i) in
        check Alcotest.int "clamped" 3 stats.Fleet.cost.domains);
    Alcotest.test_case "invalid arguments rejected" `Quick (fun () ->
        let invalid f =
          try
            ignore (f ());
            false
          with Invalid_argument _ -> true
        in
        check Alcotest.bool "jobs < 0" true
          (invalid (fun () -> Fleet.run ~jobs:(-1) (fun i -> i)));
        check Alcotest.bool "domains < 1" true
          (invalid (fun () -> Fleet.run ~domains:0 ~jobs:4 (fun i -> i)));
        check Alcotest.bool "chunk < 1" true
          (invalid (fun () -> Fleet.run ~chunk:0 ~jobs:4 (fun i -> i))));
    Alcotest.test_case "per-domain accounting sums to the batch" `Quick
      (fun () ->
        let jobs = 97 and chunk = 5 in
        let _, s = Fleet.run ~domains:4 ~chunk ~jobs (fun i -> i) in
        let sum = Array.fold_left ( + ) 0 in
        check Alcotest.int "jobs partitioned" jobs (sum s.Fleet.per_domain_jobs);
        check Alcotest.int "chunks partitioned"
          ((jobs + chunk - 1) / chunk)
          (sum s.Fleet.per_domain_chunks);
        check Alcotest.bool "wall clock ticked" true (s.Fleet.cost.wall_ns > 0));
    Alcotest.test_case "a batch's cost counts every job's allocation" `Quick
      (fun () ->
        (* a 100-cell list is 300 minor words, wherever its job runs *)
        let job _ = List.length (Sys.opaque_identity (List.init 100 Fun.id)) in
        let jobs = 16 in
        List.iter
          (fun domains ->
            let _, s = Fleet.run ~domains ~chunk:1 ~jobs job in
            check Alcotest.bool
              (Printf.sprintf "-j %d minor words" domains)
              true
              (s.Fleet.cost.minor_words >= jobs * 300))
          [ 1; 2 ];
        let n, c = Fleet.measure (fun () -> job 0) in
        check Alcotest.int "measured value" 100 n;
        check Alcotest.int "one domain" 1 c.Fleet.domains;
        check Alcotest.bool "measured words" true (c.Fleet.minor_words >= 300));
  ]

(* --------------------------- failure capture --------------------------- *)

exception Poison of int

let failure_tests =
  [
    Alcotest.test_case "poison job is captured, pool survives" `Quick
      (fun () ->
        let outcomes, stats =
          Fleet.run ~domains:4 ~chunk:1 ~jobs:50 (fun i ->
              if i mod 7 = 3 then raise (Poison i) else i)
        in
        let fs =
          Array.to_list outcomes
          |> List.filter_map (function Error f -> Some f | Ok _ -> None)
        in
        check Alcotest.int "failed stat" (List.length fs) stats.Fleet.failed;
        List.iter
          (fun (f : Fleet.failure) ->
            check Alcotest.int "poison index" 3 (f.Fleet.job mod 7);
            check Alcotest.bool "message names the exception" true
              (String.length f.Fleet.message > 0))
          fs;
        Array.iteri
          (fun i o ->
            match o with
            | Ok v ->
                check Alcotest.bool "healthy job" true (i mod 7 <> 3);
                check Alcotest.int "value" i v
            | Error f -> check Alcotest.int "tagged with its id" i f.Fleet.job)
          outcomes);
    qcheck
      (QCheck.Test.make ~name:"failure sets agree at any domain count"
         ~count:30
         QCheck.(pair (int_range 1 60) (int_range 0 59))
         (fun (jobs, bad) ->
           let run d =
             let outcomes, _ =
               Fleet.run ~domains:d ~jobs (fun i ->
                   if i = bad then failwith "boom" else i)
             in
             Array.map (Result.map_error (fun f -> f.Fleet.job)) outcomes
           in
           run 1 = run 2 && run 2 = run 4));
  ]

(* ------------------------------ progress ------------------------------- *)

let progress_tests =
  [
    Alcotest.test_case "progress is monotone and reaches total" `Quick
      (fun () ->
        let seen = ref [] in
        let _ =
          Fleet.run ~domains:2 ~chunk:3 ~jobs:31
            ~on_progress:(fun ~completed ~total ->
              check Alcotest.int "total" 31 total;
              seen := completed :: !seen)
            (fun i -> i)
        in
        let seen = List.rev !seen in
        check Alcotest.bool "called" true (seen <> []);
        check Alcotest.int "final" 31 (List.hd (List.rev seen));
        let rec monotone = function
          | a :: (b :: _ as rest) -> a < b && monotone rest
          | _ -> true
        in
        check Alcotest.bool "strictly increasing" true (monotone seen));
    Alcotest.test_case "empty batch reports 0/0 once" `Quick (fun () ->
        let calls = ref 0 in
        let _ =
          Fleet.run ~jobs:0
            ~on_progress:(fun ~completed ~total ->
              check Alcotest.int "completed" 0 completed;
              check Alcotest.int "total" 0 total;
              incr calls)
            (fun i -> i)
        in
        check Alcotest.int "exactly once" 1 !calls);
  ]

(* ------------------------------ metrics -------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "batch metrics account for every job" `Quick (fun () ->
        let m = Obsv.Metrics.create () in
        let _ =
          Fleet.run ~metrics:m ~domains:2 ~chunk:2 ~jobs:20 (fun i ->
              if i = 7 then failwith "boom" else i)
        in
        let value name labels =
          List.fold_left
            (fun acc (s : Obsv.Metrics.sample) ->
              if s.Obsv.Metrics.s_name = name && s.Obsv.Metrics.s_labels = labels
              then
                match s.Obsv.Metrics.s_value with
                | Obsv.Metrics.Counter_v v | Obsv.Metrics.Gauge_v v -> acc + v
                | Obsv.Metrics.Histogram_v _ -> acc
              else acc)
            0
            (Obsv.Metrics.snapshot m)
        in
        check Alcotest.int "batches" 1 (value "xchain_fleet_batches_total" []);
        check Alcotest.int "ok jobs" 19
          (value "xchain_fleet_jobs_total" [ ("status", "ok") ]);
        check Alcotest.int "failed jobs" 1
          (value "xchain_fleet_jobs_total" [ ("status", "failed") ]);
        let per_domain name =
          List.init 2 (fun d -> value name [ ("domain", string_of_int d) ])
          |> List.fold_left ( + ) 0
        in
        check Alcotest.int "per-domain jobs sum" 20
          (per_domain "xchain_fleet_domain_jobs_total");
        (* Each domain's steal count is (slices claimed - 1), so the sum is
           10 slices minus however many domains won at least one slice —
           which domain claims what is timing-dependent, the range is not. *)
        let steals = per_domain "xchain_fleet_steals_total" in
        check Alcotest.bool "steals within [chunks-domains, chunks-1]" true
          (steals >= 8 && steals <= 9));
  ]

(* ---------------------------- determinism ------------------------------ *)

(* The tentpole property: for a random batch of chaos plans, the merged
   soak summary — counts, per-violation repro lines, event totals, the
   full JSON minus its timing block — is byte-identical at -j 1, 2 and 4. *)
let determinism_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"fleet merge is domain-count invariant"
         ~count:50
         QCheck.(triple (int_range 1 200) (int_range 1 32) small_int)
         (fun (jobs, chunk, salt) ->
           let f i = (i * 2654435761) lxor salt in
           let run d = fst (Fleet.run ~domains:d ~chunk ~jobs f) in
           run 1 = run 2 && run 2 = run 4));
    qcheck
      (QCheck.Test.make
         ~name:"chaos soak JSON is byte-identical at -j 1/2/4 (mod timing)"
         ~count:8
         QCheck.(pair (int_range 1 1000) (int_range 4 24))
         (fun (seed, runs) ->
           let soak d =
             let s = Xchain.Chaos.soak ~runs ~domains:d ~seed () in
             strip_timing (Xchain.Chaos.summary_to_json ~seed s)
           in
           let j1 = soak 1 in
           j1 = soak 2 && j1 = soak 4));
    Alcotest.test_case "corner sweep is domain-count invariant" `Quick
      (fun () ->
        let sweep d =
          let r =
            Xchain.Explore.sweep ~hops:1 ~domains:d
              ~protocol:Protocols.Runner.Naive_universal ()
          in
          ( r.Xchain.Explore.corners,
            r.Xchain.Explore.violations,
            r.Xchain.Explore.first_witness,
            r.Xchain.Explore.events )
        in
        let r1 = sweep 1 in
        check Alcotest.bool "-j2 = -j1" true (sweep 2 = r1);
        check Alcotest.bool "-j4 = -j1" true (sweep 4 = r1);
        let _, violations, witness, _ = r1 in
        check Alcotest.bool "baseline convicted" true (violations > 0);
        check Alcotest.bool "witness stable" true (witness <> None));
  ]

let () =
  Alcotest.run "fleet"
    [
      ("mechanics", mechanics_tests);
      ("failures", failure_tests);
      ("progress", progress_tests);
      ("metrics", metrics_tests);
      ("determinism", determinism_tests);
    ]

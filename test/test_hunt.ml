(* Tests for the coverage-guided adversarial hunt: outcome signatures,
   plan mutation, repro shrinking, and the search loop's determinism and
   coverage contracts. *)

open Sim
module FP = Faults.Fault_plan
module C = Xchain.Chaos
module Sig = Hunt.Signature

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let plan_of s =
  match FP.of_string s with Ok p -> p | Error e -> Alcotest.fail e

(* the hunt's blame split point: delta + sigma of the default config *)
let delta =
  let cfg = Protocols.Runner.default_config ~hops:2 ~seed:1 in
  cfg.Protocols.Runner.delta + cfg.Protocols.Runner.sigma

(* one signed run, exactly as the hunt executes candidates *)
let signed ~plan ~seed =
  let causal = Obsv.Causal.create () in
  let r = C.run_one ~causal ~plan ~seed () in
  (r, Sig.to_string (Sig.of_run ~causal ~delta r))

(* field [i] of a signature's key *)
let field i s = List.nth (String.split_on_char '|' (Sig.to_string s)) i

let clean_run () = C.run_one ~plan:FP.none ~seed:1 ()

(* the signature of a run whose payment history is one chain from the
   root, node 0 at time 0, to the sink: an edge per (kind, gap) *)
let chain_signature edges =
  let c = Obsv.Causal.create () in
  let node at = Obsv.Causal.record c ~kind:Obsv.Causal.Note ~pid:0 ~at ~label:"n" () in
  let sink, _ =
    List.fold_left
      (fun (prev, t) (kind, gap) ->
        let n = node (t + gap) in
        Obsv.Causal.add_edge c ~kind ~src:prev ~dst:n;
        (n, t + gap))
      (node 0, 0) edges
  in
  Sig.of_run ~causal:c ~delta { (clean_run ()) with C.paid_node = sink }

(* the soak's uniform plan for run seed [s] (2 hops, sync horizon) *)
let uniform_plan s =
  let prng = Rng.create ~seed:(s + 7919) in
  FP.random prng ~nprocs:5 ~horizon:4_345

(* ------------------------------ signature ------------------------------ *)

let signature_tests =
  [
    Alcotest.test_case "signatures are replay-stable" `Quick (fun () ->
        for s = 1 to 10 do
          let plan = uniform_plan s in
          let _, a = signed ~plan ~seed:s in
          let _, b = signed ~plan ~seed:s in
          check Alcotest.string (Printf.sprintf "seed %d" s) a b
        done);
    Alcotest.test_case "distinct behaviours get distinct signatures" `Quick
      (fun () ->
        let _, clean = signed ~plan:FP.none ~seed:1 in
        let _, blackout = signed ~plan:(plan_of "drop *>* 1") ~seed:1 in
        check Alcotest.bool "differ" true (clean <> blackout));
    Alcotest.test_case "count buckets are monotone log-ish" `Quick (fun () ->
        (* injection counts and the hop count are count-bucketed *)
        let key injected hops =
          field 3 (Sig.of_run ~delta { (clean_run ()) with C.injected; hops })
        in
        check Alcotest.string "0 1 3 7" "i0123" (key [| 0; 1; 3; 7 |] 2);
        check Alcotest.string "8 big" "i4400" (key [| 8; 10_000; 0; 0 |] 2);
        check Alcotest.string "path of 8 hops" "p4"
          (field 5 (Sig.of_run ~delta { (clean_run ()) with C.hops = 8 })));
    Alcotest.test_case "share buckets split on 10/40/80 percent" `Quick
      (fun () ->
        (* blame digits, in category order: queueing, transit, gst wait,
           timeout, downtime, processing, external *)
        let blame edges = field 2 (chain_signature edges) in
        check Alcotest.string "10% 40% 50%" "b1002300"
          (blame Obsv.Causal.[ (Queue, 10); (Timer, 40); (Outage, 50) ]);
        check Alcotest.string "80% 20%" "b0003200"
          (blame Obsv.Causal.[ (Timer, 80); (Outage, 20) ]);
        check Alcotest.string "all" "b0004000"
          (blame Obsv.Causal.[ (Timer, 100) ]);
        check Alcotest.string "empty total" "b0000000"
          (blame Obsv.Causal.[ (Timer, 0) ]));
  ]

(* ------------------------------- mutate -------------------------------- *)

let mutate_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"mutation preserves validity and canonical form"
         ~count:100 QCheck.small_int (fun seed ->
           let rng = Rng.create ~seed in
           let nprocs = 5 and horizon = 2_000 in
           let p = ref (FP.normalize (FP.random rng ~nprocs ~horizon)) in
           let ok = ref true in
           for _ = 1 to 15 do
             p := Hunt.Mutate.mutate rng ~nprocs ~horizon ~corpus:[||] !p;
             ok :=
               !ok
               && FP.validate !p ~nprocs = Ok ()
               && (not (FP.is_none !p))
               && FP.normalize !p = !p
           done;
           !ok));
    Alcotest.test_case "mutation stream is a pure function of its seed" `Quick
      (fun () ->
        let stream seed =
          let rng = Rng.create ~seed in
          let p = ref (FP.normalize (FP.random rng ~nprocs:5 ~horizon:2_000)) in
          List.init 20 (fun _ ->
              p := Hunt.Mutate.mutate rng ~nprocs:5 ~horizon:2_000 ~corpus:[||] !p;
              FP.to_string !p)
        in
        check Alcotest.(list string) "same seed, same plans" (stream 7)
          (stream 7));
    Alcotest.test_case "splice draws from the corpus" `Quick (fun () ->
        (* with a single-plan corpus, repeated mutation eventually splices
           its crash clause in — pure determinism makes this a fixed fact
           of seed 3, not a flaky sample *)
        let rng = Rng.create ~seed:3 in
        let corpus = [| plan_of "crash 4@123+456" |] in
        let p = ref (plan_of "drop *>* 0.2") in
        let spliced = ref false in
        for _ = 1 to 40 do
          p := Hunt.Mutate.mutate rng ~nprocs:5 ~horizon:2_000 ~corpus !p;
          if
            List.exists
              (fun c -> c.FP.pid = 4 && c.FP.at = 123)
              !p.FP.crashes
          then spliced := true
        done;
        check Alcotest.bool "spliced" true !spliced);
  ]

(* ------------------------------- shrink -------------------------------- *)

(* interesting seeds of the uniform stream around seed 5 (stuck runs) *)
let interesting_seeds =
  List.filter
    (fun s ->
      match (fst (signed ~plan:(uniform_plan s) ~seed:s)).C.classification with
      | C.Stuck | C.Safety_violation -> true
      | _ -> false)
    (List.init 30 (fun i -> 5 + i))

let shrink_one ?max_trials s =
  let plan = uniform_plan s in
  let r, signature = signed ~plan ~seed:s in
  let replay q = snd (signed ~plan:q ~seed:s) in
  let shrunk, trials =
    Hunt.Shrink.shrink ~nprocs:5 ~horizon:4_345 ~signature ~replay
      ~fired:r.C.fired ?max_trials plan
  in
  (plan, signature, shrunk, trials)

let shrink_tests =
  [
    Alcotest.test_case "shrinking preserves the signature" `Quick (fun () ->
        check Alcotest.bool "have targets" true (interesting_seeds <> []);
        List.iter
          (fun s ->
            let _, signature, shrunk, _ = shrink_one s in
            check Alcotest.string
              (Printf.sprintf "seed %d" s)
              signature
              (snd (signed ~plan:shrunk ~seed:s)))
          interesting_seeds);
    Alcotest.test_case "shrunk plans are never larger" `Quick (fun () ->
        List.iter
          (fun s ->
            let plan, _, shrunk, _ = shrink_one s in
            check Alcotest.bool
              (Printf.sprintf "clauses seed %d" s)
              true
              (FP.clause_count shrunk <= FP.clause_count plan);
            check Alcotest.bool
              (Printf.sprintf "valid seed %d" s)
              true
              (FP.validate shrunk ~nprocs:5 = Ok ()))
          interesting_seeds);
    Alcotest.test_case "shrinking terminates at a fixpoint" `Quick (fun () ->
        List.iter
          (fun s ->
            let _, signature, shrunk, _ = shrink_one s in
            let replay q = snd (signed ~plan:q ~seed:s) in
            let again, _ =
              Hunt.Shrink.shrink ~nprocs:5 ~horizon:4_345 ~signature ~replay
                shrunk
            in
            check Alcotest.string
              (Printf.sprintf "seed %d" s)
              (FP.to_string shrunk) (FP.to_string again))
          interesting_seeds);
    Alcotest.test_case "max_trials caps the replay count" `Quick (fun () ->
        List.iter
          (fun s ->
            let _, _, _, trials = shrink_one ~max_trials:5 s in
            check Alcotest.bool
              (Printf.sprintf "seed %d" s)
              true (trials <= 5))
          interesting_seeds);
  ]

(* -------------------------------- hunt --------------------------------- *)

let hunt_tests =
  [
    Alcotest.test_case "report is identical for any domain count" `Quick
      (fun () ->
        let run domains =
          Hunt.Search.hunt ~gen_size:20 ~domains ~budget:60 ~seed:5 ()
        in
        let a = run 1 and b = run 2 in
        check Alcotest.string "corpus" (Hunt.Search.corpus_to_jsonl a)
          (Hunt.Search.corpus_to_jsonl b);
        check Alcotest.(list string) "repros" (Hunt.Search.repro_lines a)
          (Hunt.Search.repro_lines b);
        check Alcotest.int "signatures" a.Hunt.Search.signatures
          b.Hunt.Search.signatures);
    Alcotest.test_case "generation 0 replays the uniform stream" `Quick
      (fun () ->
        (* budget = one generation: the hunt IS the uniform sweep, so the
           baseline must count exactly the same signatures *)
        let r =
          Hunt.Search.hunt ~gen_size:40 ~budget:40 ~baseline:true
            ~shrink:false ~seed:5 ()
        in
        check Alcotest.int "equal coverage" r.Hunt.Search.signatures
          r.Hunt.Search.uniform_signatures);
    Alcotest.test_case "hunt beats uniform sampling at equal budget" `Quick
      (fun () ->
        let r =
          Hunt.Search.hunt ~gen_size:25 ~budget:100 ~baseline:true
            ~shrink:false ~seed:5 ()
        in
        check Alcotest.bool
          (Printf.sprintf "%d > %d" r.Hunt.Search.signatures
             r.Hunt.Search.uniform_signatures)
          true
          (r.Hunt.Search.signatures > r.Hunt.Search.uniform_signatures));
    Alcotest.test_case "every interesting witness ships a shrunken repro"
      `Quick (fun () ->
        let r = Hunt.Search.hunt ~gen_size:25 ~budget:75 ~seed:5 () in
        let interesting =
          List.filter
            (fun (e : Hunt.Search.entry) ->
              match e.Hunt.Search.classification with
              | C.Stuck | C.Safety_violation -> true
              | _ -> false)
            r.Hunt.Search.corpus
        in
        check Alcotest.bool "have witnesses" true (interesting <> []);
        List.iter
          (fun (e : Hunt.Search.entry) ->
            match e.Hunt.Search.shrunk with
            | None -> Alcotest.failf "witness %d not shrunk" e.Hunt.Search.index
            | Some (q, _) ->
                check Alcotest.bool
                  (Printf.sprintf "smaller %d" e.Hunt.Search.index)
                  true
                  (FP.clause_count q
                  <= FP.clause_count e.Hunt.Search.plan);
                (* the emitted repro replays to the same signature *)
                check Alcotest.string
                  (Printf.sprintf "replays %d" e.Hunt.Search.index)
                  e.Hunt.Search.signature
                  (snd (signed ~plan:q ~seed:e.Hunt.Search.seed)))
          interesting);
    Alcotest.test_case "budget is spent exactly" `Quick (fun () ->
        let r = Hunt.Search.hunt ~gen_size:30 ~budget:70 ~shrink:false ~seed:2 () in
        check Alcotest.int "runs" 70
          (List.fold_left
             (fun a (g : Hunt.Search.gen_stat) -> a + g.Hunt.Search.runs)
             0 r.Hunt.Search.generations);
        check Alcotest.(list int) "batch sizes" [ 30; 30; 10 ]
          (List.map
             (fun (g : Hunt.Search.gen_stat) -> g.Hunt.Search.runs)
             r.Hunt.Search.generations));
  ]

let () =
  Alcotest.run "hunt"
    [
      ("signature", signature_tests);
      ("mutate", mutate_tests);
      ("shrink", shrink_tests);
      ("hunt", hunt_tests);
    ]

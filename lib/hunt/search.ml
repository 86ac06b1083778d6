module C = Xchain.Chaos
module Runner = Protocols.Runner
module Proto = Protocols.Proto
module FP = Faults.Fault_plan
module Rng = Sim.Rng

type entry = {
  gen : int;
  index : int;
  seed : int;
  plan : FP.t;
  classification : C.classification;
  signature : string;
  fired : int array;
  mutable shrunk : (FP.t * int) option;
}

type gen_stat = { gen : int; runs : int; novel : int }

type report = {
  budget : int;
  gen_size : int;
  hops : int;
  protocol : Proto.t;
  seed : int;
  generations : gen_stat list;
  corpus : entry list;
  signatures : int;
  uniform_signatures : int;
  commits : int;
  aborts : int;
  stuck : int;
  violations : int;
  shrink_trials : int;
  events : int;
  cost : Fleet.cost;
}

let interesting (e : entry) =
  match e.classification with
  | C.Stuck | C.Safety_violation -> true
  | C.Safe_commit | C.Safe_abort -> false

let repro_plan (e : entry) =
  match e.shrunk with Some (p, _) -> p | None -> e.plan

let repro_line ~hops ~protocol (e : entry) =
  C.repro ~hops ~protocol ~seed:e.seed (repro_plan e)

(* the soak's uniform plan stream: run [i] of a uniform sweep rooted at
   [seed] draws its plan from [seed + i + 7919] alone (see Chaos.soak).
   Generation 0 and the [baseline] sweep replicate it exactly so
   hunt-vs-uniform comparisons are apples-to-apples. *)
let uniform_plan ~nprocs ~horizon ~run_seed =
  let prng = Rng.create ~seed:(run_seed + 7919) in
  FP.random prng ~nprocs ~horizon

let fail_job (f : Fleet.failure) =
  failwith
    (Printf.sprintf "hunt: job %d raised: %s" f.Fleet.job f.Fleet.message)

let hunt ?(hops = 2) ?(protocol = Proto.Sync) ?(gen_size = 50)
    ?domains ?(baseline = false) ?(shrink = true) ?max_shrink_trials
    ?on_progress ~budget ~seed () =
  if budget <= 0 then invalid_arg "Hunt.hunt: budget must be positive";
  if gen_size <= 0 then invalid_arg "Hunt.hunt: gen_size must be positive";
  let nprocs = (2 * hops) + 1 in
  let cfg = Runner.default_config ~hops ~seed in
  let horizon =
    (Runner.derive_params cfg (Proto.runner protocol)).Protocols.Params.horizon
  in
  let delta = cfg.Runner.delta + cfg.Runner.sigma in
  let run_plan ~plan ~run_seed =
    let causal = Obsv.Causal.create () in
    (* the online monitor stamps violating runs with their first-breach
       sim-time, which the signature buckets: two plans that break the
       same property at different phases of the run are distinct finds *)
    let monitor = Obsv.Monitor.create () in
    let r =
      C.run_one ~hops ~protocol ~causal ~monitor ~plan ~seed:run_seed ()
    in
    (r, Signature.to_string (Signature.of_run ~causal ~delta r))
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let corpus_rev = ref [] in
  let corpus_plans = ref [||] in
  let generations = ref [] in
  let commits = ref 0
  and aborts = ref 0
  and stuck = ref 0
  and violations = ref 0
  and events = ref 0
  and cost = ref Fleet.no_cost in
  (* Mutations draw from this generator on the calling domain only,
     between fleet batches — the whole schedule of candidate plans is a
     pure function of [seed] and never depends on the domain count. *)
  let mut_rng = Rng.create ~seed:(seed + 524287) in
  let done_ = ref 0 in
  let gen = ref 0 in
  while !done_ < budget do
    let batch = Stdlib.min gen_size (budget - !done_) in
    let base = !done_ in
    (* candidate plans for this generation, drawn before the fleet runs *)
    let plans =
      Array.init batch (fun j ->
          let run_seed = seed + base + j in
          if !gen = 0 then uniform_plan ~nprocs ~horizon ~run_seed
          else if Array.length !corpus_plans = 0 || Rng.int mut_rng 10 = 0
          then FP.normalize (FP.random mut_rng ~nprocs ~horizon)
          else
            Mutate.mutate mut_rng ~nprocs ~horizon ~corpus:!corpus_plans
              (Rng.choose mut_rng !corpus_plans))
    in
    let on_progress =
      Option.map
        (fun f ~completed ~total:_ ->
          f ~completed:(base + completed) ~total:budget)
        on_progress
    in
    let outcomes, stats =
      Fleet.run ?domains ?on_progress ~jobs:batch (fun j ->
          run_plan ~plan:plans.(j) ~run_seed:(seed + base + j))
    in
    cost := Fleet.add_cost !cost stats.Fleet.cost;
    let novel = ref 0 in
    Array.iteri
      (fun j outcome ->
        match outcome with
        | Error f -> fail_job f
        | Ok ((r : C.run_result), signature) ->
            events := !events + r.C.events;
            (match r.C.classification with
            | C.Safe_commit -> incr commits
            | C.Safe_abort -> incr aborts
            | C.Stuck -> incr stuck
            | C.Safety_violation -> incr violations);
            if not (Hashtbl.mem seen signature) then begin
              Hashtbl.add seen signature ();
              incr novel;
              corpus_rev :=
                {
                  gen = !gen;
                  index = base + j;
                  seed = seed + base + j;
                  plan = plans.(j);
                  classification = r.C.classification;
                  signature;
                  fired = r.C.fired;
                  shrunk = None;
                }
                :: !corpus_rev
            end)
      outcomes;
    corpus_plans :=
      Array.of_list (List.rev_map (fun e -> e.plan) !corpus_rev);
    generations := { gen = !gen; runs = batch; novel = !novel } :: !generations;
    done_ := !done_ + batch;
    incr gen
  done;
  let corpus = List.rev !corpus_rev in
  (* uniform baseline at the same budget and root seed, for the
     hunt-beats-uniform comparison; generation 0 is its prefix *)
  let uniform_signatures =
    if not baseline then -1
    else begin
      let outcomes, _ =
        Fleet.run ?domains ~jobs:budget (fun i ->
            let run_seed = seed + i in
            let plan = uniform_plan ~nprocs ~horizon ~run_seed in
            snd (run_plan ~plan ~run_seed))
      in
      let u = Hashtbl.create 64 in
      Array.iter
        (fun outcome ->
          match outcome with
          | Error f -> fail_job f
          | Ok signature -> Hashtbl.replace u signature ())
        outcomes;
      Hashtbl.length u
    end
  in
  (* shrink every stuck / violating witness to a minimal repro *)
  let shrink_trials = ref 0 in
  if shrink then begin
    let targets = Array.of_list (List.filter interesting corpus) in
    if Array.length targets > 0 then begin
      let outcomes, _ =
        Fleet.run ?domains ~jobs:(Array.length targets) (fun i ->
            let e = targets.(i) in
            let replay q = snd (run_plan ~plan:q ~run_seed:e.seed) in
            Shrink.shrink ~nprocs ~horizon ~signature:e.signature ~replay
              ~fired:e.fired ?max_trials:max_shrink_trials e.plan)
      in
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Error f -> fail_job f
          | Ok ((q, trials) as s) ->
              ignore q;
              shrink_trials := !shrink_trials + trials;
              targets.(i).shrunk <- Some s)
        outcomes
    end
  end;
  {
    budget;
    gen_size;
    hops;
    protocol;
    seed;
    generations = List.rev !generations;
    corpus;
    signatures = Hashtbl.length seen;
    uniform_signatures;
    commits = !commits;
    aborts = !aborts;
    stuck = !stuck;
    violations = !violations;
    shrink_trials = !shrink_trials;
    events = !events;
    cost = !cost;
  }

let repro_lines r =
  List.map
    (repro_line ~hops:r.hops ~protocol:r.protocol)
    (List.filter interesting r.corpus)

let pp_report ppf r =
  Fmt.pf ppf "hunt: %d runs over %d generations, %d signatures" r.budget
    (List.length r.generations) r.signatures;
  if r.uniform_signatures >= 0 then
    Fmt.pf ppf " (uniform baseline: %d)" r.uniform_signatures;
  Fmt.pf ppf "@,  commits=%d aborts=%d stuck=%d violations=%d events=%d"
    r.commits r.aborts r.stuck r.violations r.events;
  let shrunk = List.filter (fun e -> e.shrunk <> None) r.corpus in
  Fmt.pf ppf "@,  corpus: %d entries, %d shrunk (%d shrink trials)"
    (List.length r.corpus) (List.length shrunk) r.shrink_trials;
  List.iter
    (fun e ->
      Fmt.pf ppf "@,  [%s] %s"
        (C.classification_name e.classification)
        (repro_line ~hops:r.hops ~protocol:r.protocol e))
    (List.filter interesting r.corpus)

let entry_json ~hops ~protocol (e : entry) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"gen\":%d,\"index\":%d,\"seed\":%d,\"classification\":\"%s\",\
        \"signature\":\"%s\",\"plan\":\"%s\""
       e.gen e.index e.seed
       (C.classification_name e.classification)
       (Obsv.Metrics.json_escape e.signature)
       (Obsv.Metrics.json_escape (FP.to_string e.plan)));
  (match e.shrunk with
  | Some (q, trials) ->
      Buffer.add_string buf
        (Printf.sprintf ",\"shrunk\":\"%s\",\"shrink_trials\":%d"
           (Obsv.Metrics.json_escape (FP.to_string q))
           trials)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf ",\"repro\":\"%s\"}"
       (Obsv.Metrics.json_escape (repro_line ~hops ~protocol e)));
  Buffer.contents buf

let report_to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"hunt\":{\"budget\":%d,\"gen_size\":%d,\"hops\":%d,\
        \"protocol\":\"%s\",\"seed\":%d,\"signatures\":%d,\
        \"uniform_signatures\":%d,\"commits\":%d,\"aborts\":%d,\"stuck\":%d,\
        \"violations\":%d,\"shrink_trials\":%d,\"events\":%d,\
        \"generations\":["
       r.budget r.gen_size r.hops
       (Proto.name r.protocol)
       r.seed r.signatures r.uniform_signatures r.commits r.aborts r.stuck
       r.violations r.shrink_trials r.events);
  List.iteri
    (fun i (g : gen_stat) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"gen\":%d,\"runs\":%d,\"novel\":%d}" g.gen g.runs
           g.novel))
    r.generations;
  Buffer.add_string buf "],\"corpus\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (entry_json ~hops:r.hops ~protocol:r.protocol e))
    r.corpus;
  Buffer.add_string buf ("]}" ^ Fleet.timing_json ~events:r.events r.cost ^ "}\n");
  Buffer.contents buf

let corpus_to_jsonl r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_json ~hops:r.hops ~protocol:r.protocol e);
      Buffer.add_char buf '\n')
    r.corpus;
  Buffer.contents buf

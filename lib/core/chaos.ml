module Runner = Protocols.Runner
module Proto = Protocols.Proto
module Topology = Protocols.Topology
module P = Props.Payment_props
module V = Props.Verdict
module Fault_plan = Faults.Fault_plan

type classification = Safe_commit | Safe_abort | Stuck | Safety_violation

let classification_name = function
  | Safe_commit -> "safe-commit"
  | Safe_abort -> "safe-abort"
  | Stuck -> "stuck"
  | Safety_violation -> "safety-violation"

type run_result = {
  seed : int;
  hops : int;
  protocol : Proto.t;
  plan : Fault_plan.t;
  faults : (int * Protocols.Byzantine.t) list;
  classification : classification;
  failures : V.t list;
  status : Sim.Engine.status;
  end_time : Sim.Sim_time.t;
  events : int;
  paid_node : int;
  settled_node : int;
  fired : int array;
  injected : int array;
  breach_at : int;
      (* sim-time the online monitor first tripped; -1 when unmonitored
         or nothing ever tripped *)
}

let m_ok = V.ok "M" "money conserved"
let m_violated = V.violated "M" "money not conserved across books"

(* The safety subset as named checks over a view: the payment-level
   safety of the run's Definition, then ES and global conservation. Each
   allocates only to describe a violation, so the monitor can run them on
   every dispatch. *)
let safety_checks view =
  List.map
    (fun (name, check) -> (name, fun () -> check view.P.judge))
    (Props.Payment_fold.safety view.P.outcome.Runner.protocol)
  @ [
      ("ES", fun () -> P.check_es view);
      ("M", fun () -> if P.money_conserved view then m_ok else m_violated);
    ]

let safety_report view =
  List.map (fun (_, check) -> check ()) (safety_checks view)

let classify view report =
  let failed = List.filter (fun v -> v.V.applicable && not v.V.holds) report in
  if failed <> [] then (Safety_violation, failed)
  else if P.bob_paid view then (Safe_commit, [])
  else begin
    let topo = view.P.outcome.Runner.env.Protocols.Env.topo in
    let settled =
      List.for_all
        (fun pid ->
          view.P.byzantine pid || Option.is_some (view.P.terminated pid))
        (Topology.customers topo)
    in
    ((if settled then Safe_abort else Stuck), [])
  end

(* Register the safety subset as online monitor checks over the live run.
   The live view's fold is fed entry by entry by a trace hook and its net
   positions read the run's own books, so each dispatch costs O(pids), and
   the monitor's final verdict set IS the post-hoc [safety_report]
   evaluated at the final state, by construction. *)
let register_safety_checks m (o : Runner.outcome) =
  List.iter
    (fun (name, check) ->
      Obsv.Monitor.register m ~name (fun () ->
          let v = check () in
          if v.V.applicable && not v.V.holds then Some v.V.detail else None))
    (safety_checks (P.live_view o))

(* Probe columns for a single-payment chaos run: engine queue depth plus
   each escrow book's pooled (escrowed) funds. *)
let install_probe s (o : Runner.outcome) =
  let books = o.Runner.env.Protocols.Env.books in
  let n = Array.length books in
  let columns =
    "queue_depth" :: List.init n (fun i -> Printf.sprintf "escrow%d_pool" i)
  in
  Obsv.Sampler.set_probe s ~columns (fun () ->
      Array.init (n + 1) (fun i ->
          if i = 0 then Sim.Engine.queue_depth o.Runner.engine
          else Ledger.Book.pool_total books.(i - 1)))

let run_one ?(hops = 2) ?(protocol = Proto.Sync) ?causal ?prof
    ?monitor ?sampler ?recorder ?(faults = []) ~plan ~seed () =
  let on_ready =
    match (monitor, sampler, recorder) with
    | None, None, None -> None
    | _ ->
        Some
          (fun o ->
            Option.iter (fun m -> register_safety_checks m o) monitor;
            Option.iter (fun s -> install_probe s o) sampler;
            Option.iter
              (fun rc ->
                Sim.Trace.on_record o.Runner.trace (Sim.Trace.record rc))
              recorder)
  in
  let cfg =
    {
      (Runner.default_config ~hops ~seed) with
      fault_plan = Some plan;
      causal;
      prof;
      monitor;
      sampler;
      on_ready;
      faults;
    }
  in
  let outcome = Runner.run cfg (Proto.runner protocol) in
  let view = P.view outcome in
  let report = safety_report view in
  let classification, failures = classify view report in
  let fired, injected =
    match outcome.Runner.injector with
    | None -> ([||], Array.make 4 0)
    | Some inj ->
        ( Faults.Injector.clause_hits inj ~end_time:outcome.Runner.end_time,
          Faults.Injector.kind_counts inj )
  in
  {
    seed;
    hops;
    protocol;
    plan;
    faults;
    classification;
    failures;
    status = outcome.Runner.status;
    end_time = outcome.Runner.end_time;
    events = outcome.Runner.events;
    paid_node = outcome.Runner.paid_node;
    settled_node = outcome.Runner.settled_node;
    fired;
    injected;
    breach_at =
      (match monitor with None -> -1 | Some m -> Obsv.Monitor.breach_at m);
  }

let repro ~hops ~protocol ?(faults = []) ~seed plan =
  let topo = Topology.create ~hops in
  Printf.sprintf "xchain chaos -p %s --hops %d --seed %d --plan '%s'%s"
    (Proto.name protocol) hops seed
    (Fault_plan.to_string plan)
    (String.concat ""
       (List.map
          (fun f -> " --fault " ^ Protocols.Byzantine.fault_to_string topo f)
          faults))

let repro_line r =
  repro ~hops:r.hops ~protocol:r.protocol ~faults:r.faults ~seed:r.seed r.plan

(* --------------------------- forensic bundle --------------------------- *)

(* per-run figures, not the process-global registry: a bundle must be
   byte-identical whenever its (seed, plan) replays, even from a process
   that has already run other payments *)
let bundle ~monitor ~recorder r =
  let metrics =
    let inj i = if Array.length r.injected > i then r.injected.(i) else 0 in
    Printf.sprintf
      "{\"classification\":\"%s\",\"end_time\":%d,\"events\":%d,\"injected\":{\"drops\":%d,\"dups\":%d,\"corruptions\":%d,\"partition_suppressions\":%d}}"
      (classification_name r.classification)
      r.end_time r.events (inj 0) (inj 1) (inj 2) (inj 3)
  in
  Obsv.Monitor.bundle_json monitor ~stuck_at:r.end_time
    ~stuck_detail:"unsettled when the run stopped" ~repro:(repro_line r)
    ~ring:(Runner.ring_json recorder) ~metrics

let replay_bundle ?hops ?protocol ~plan ~seed () =
  let monitor = Obsv.Monitor.create () in
  let recorder = Sim.Trace.create ~capacity:256 () in
  bundle ~monitor ~recorder
    (run_one ?hops ?protocol ~monitor ~recorder ~plan ~seed ())

type summary = {
  runs : int;
  commits : int;
  aborts : int;
  stuck : int;
  violations : run_result list;
  events : int;
  cost : Fleet.cost;
}

type health = {
  h_done : int;
  h_total : int;
  h_commits : int;
  h_aborts : int;
  h_stuck : int;
  h_violations : int;
}

let soak ?(hops = 2) ?(protocol = Proto.Sync) ?(runs = 200) ?domains
    ?prof ?(monitor = false) ?on_progress ?on_health ~seed () =
  (* a profiler is single-threaded mutable state: profiled soaks run on
     one domain so every dispatch lands in the same accumulator set *)
  let domains = match prof with Some _ -> Some 1 | None -> domains in
  let nprocs = 2 * hops + 1 in
  let horizon =
    (Runner.derive_params (Runner.default_config ~hops ~seed)
       (Proto.runner protocol))
      .Protocols.Params.horizon
  in
  (* One chaos run per fleet job: everything derives from the run seed
     alone (the plan included), so a single run replays from its printed
     repro without re-running the sweep — and the job is pure, which is
     what lets the fleet shard it across domains. *)
  (* live health counters: jobs bump them from their own domains, the
     calling domain renders them inside Fleet's progress callback *)
  let a_commits = Atomic.make 0
  and a_aborts = Atomic.make 0
  and a_stuck = Atomic.make 0
  and a_violations = Atomic.make 0
  and a_events = Atomic.make 0 in
  (* A job keeps its result only for a safety violation, the one kind the
     summary reports run by run; every other run is counted and dropped.
     Sums commute, so the totals are the same at any domain count. *)
  let job i =
    let run_seed = seed + i in
    let prng = Sim.Rng.create ~seed:(run_seed + 7919) in
    let plan = Fault_plan.random prng ~nprocs ~horizon in
    let mon = if monitor then Some (Obsv.Monitor.create ()) else None in
    let r = run_one ~hops ~protocol ?prof ?monitor:mon ~plan ~seed:run_seed () in
    ignore (Atomic.fetch_and_add a_events r.events);
    match r.classification with
    | Safe_commit -> Atomic.incr a_commits; None
    | Safe_abort -> Atomic.incr a_aborts; None
    | Stuck -> Atomic.incr a_stuck; None
    | Safety_violation -> Atomic.incr a_violations; Some r
  in
  let on_progress =
    match on_health with
    | None -> on_progress
    | Some health ->
        Some
          (fun ~completed ~total ->
            (match on_progress with
            | Some f -> f ~completed ~total
            | None -> ());
            health
              {
                h_done = completed;
                h_total = total;
                h_commits = Atomic.get a_commits;
                h_aborts = Atomic.get a_aborts;
                h_stuck = Atomic.get a_stuck;
                h_violations = Atomic.get a_violations;
              })
  in
  let outcomes, stats = Fleet.run ?domains ?on_progress ~jobs:runs job in
  let violations = ref [] in
  Array.iter
    (function
      | Error (f : Fleet.failure) ->
          (* a raising run is a harness bug, not a protocol outcome;
             surface it exactly as the sequential loop would have *)
          failwith
            (Printf.sprintf "chaos soak: job %d raised: %s" f.Fleet.job
               f.Fleet.message)
      | Ok None -> ()
      | Ok (Some r) -> violations := r :: !violations)
    outcomes;
  {
    runs;
    commits = Atomic.get a_commits;
    aborts = Atomic.get a_aborts;
    stuck = Atomic.get a_stuck;
    violations = List.rev !violations;
    events = Atomic.get a_events;
    cost = stats.Fleet.cost;
  }

(* The leading object is a pure function of (hops, protocol, runs, seed);
   everything timing-dependent lives in the trailing "timing" member so
   byte-identity checks across domain counts can strip it (see
   scripts/strip_timing.py). *)
let summary_to_json ?(hops = 2) ?(protocol = Proto.Sync) ~seed s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"chaos\":{\"runs\":%d,\"hops\":%d,\"protocol\":\"%s\",\"seed\":%d,\
        \"commits\":%d,\"aborts\":%d,\"stuck\":%d,\"events\":%d,\
        \"violations\":["
       s.runs hops (Proto.name protocol) seed s.commits s.aborts s.stuck
       s.events);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"seed\":%d,\"plan\":\"%s\",\"repro\":\"%s\"}" r.seed
           (Obsv.Metrics.json_escape (Fault_plan.to_string r.plan))
           (Obsv.Metrics.json_escape (repro_line r))))
    s.violations;
  Buffer.add_string buf ("]}" ^ Fleet.timing_json ~events:s.events s.cost ^ "}\n");
  Buffer.contents buf

let pp_summary ppf s =
  Fmt.pf ppf
    "chaos soak: %d runs — %d safe-commit, %d safe-abort, %d stuck, %d \
     safety-violation"
    s.runs s.commits s.aborts s.stuck
    (List.length s.violations);
  List.iter
    (fun r ->
      Fmt.pf ppf "@.VIOLATION %s"
        (repro_line r);
      List.iter
        (fun v -> Fmt.pf ppf "@.  %s: %s" v.V.property v.V.detail)
        r.failures)
    s.violations

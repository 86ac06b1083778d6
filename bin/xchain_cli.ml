(* Command-line front end.

   xchain pay         — run one payment and report outcome + properties
   xchain experiment  — regenerate the reproduction tables (e1..e13, all)
   xchain params      — show the derived timeout windows (Thm 1 tuning)
   xchain metrics     — the telemetry catalogue / a probe-run exposition
   xchain explore     — exhaustive corner sweep, sharded over -j domains
   xchain dot         — emit the Figure 2 automata as Graphviz *)

open Cmdliner
open Protocols

(* ----------------------------- telemetry ------------------------------- *)

(* Every simulation subcommand accepts --metrics-out / --spans-out; "-"
   writes to stdout (after the human-readable report). Span capture starts
   off and is armed only when a sink was requested, so bulk commands
   (experiment, chaos, hunt) don't accumulate spans nobody will read. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry as Prometheus text exposition to \
           $(docv) after the run ('-' for stdout). See docs/observability.md \
           for the metric catalogue.")

let spans_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans-out" ] ~docv:"FILE"
        ~doc:
          "Write payment/deal spans as JSON lines to $(docv) after the run \
           ('-' for stdout). One object per span; root spans carry the \
           commit/abort status.")

let write_sink path content =
  match path with
  | None -> ()
  | Some "-" -> print_string content
  | Some file -> (
      try
        let oc = open_out file in
        output_string oc content;
        close_out oc
      with Sys_error msg ->
        Fmt.epr "xchain: cannot write telemetry: %s@." msg;
        exit 2)

let arm_span_capture spans_out =
  Obsv.Span.set_capture Obsv.Span.default (spans_out <> None)

let dump_telemetry ~metrics_out ~spans_out =
  write_sink metrics_out (Obsv.Prometheus.render Obsv.Metrics.default);
  write_sink spans_out (Obsv.Span.to_jsonl Obsv.Span.default)

(* ------------------------------- fleet --------------------------------- *)

(* The soak/sweep/replication commands shard their independent runs over a
   fleet of OCaml domains. Results are merged in job order, so every
   deterministic output is byte-identical for any -j value. *)

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the work over $(docv) OCaml domains (0 = auto: the \
           XCHAIN_FLEET_JOBS environment variable if set, else the \
           runtime's recommended domain count). Every deterministic output \
           is byte-identical for any value; only wall-clock timing changes. \
           See docs/parallelism.md.")

let resolve_domains ~cmd j =
  if j < 0 then begin
    Fmt.epr "xchain %s: -j must be >= 0@." cmd;
    exit 2
  end
  else if j = 0 then Fleet.default_domains ()
  else j

(* Live progress on stderr, only when someone is watching: piped runs
   (cram, CI) see nothing, so transcripts stay deterministic. *)
let tty_progress label =
  if Unix.isatty Unix.stderr then
    Some
      (fun ~completed ~total ->
        Printf.eprintf "\r%s: %d/%d%!" label completed total;
        if completed >= total then prerr_newline ())
  else None

(* --- causal tracing (trace / chaos / load) --- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's happens-before graph as Chrome trace-event JSON \
           to $(docv) ('-' for stdout) — load it in chrome://tracing or \
           Perfetto. One track per engine pid; message transits are flow \
           arrows. Byte-identical across reruns with equal inputs.")

let dag_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dag-out" ] ~docv:"FILE"
        ~doc:
          "Write the happens-before DAG as JSON lines to $(docv) ('-' for \
           stdout): one node per line with its incoming edges, joinable \
           against --spans-out rows by trace/root_event id.")

let blame_arg =
  Arg.(
    value & flag
    & info [ "blame" ]
        ~doc:
          "Print the critical-path blame breakdown: end-to-end latency \
           decomposed into queueing / transit / gst_wait / timeout / \
           downtime / processing, summing exactly to the observed total.")

(* any causal sink requested? then the run folds its trace into a graph *)
let causal_wanted ~trace_out ~dag_out ~blame =
  if trace_out <> None || dag_out <> None || blame then
    Some (Obsv.Causal.create ())
  else None

let dump_causal causal ~trace_out ~dag_out ~payments =
  Option.iter
    (fun c ->
      write_sink trace_out (Obsv.Causal.to_chrome ~payments c);
      write_sink dag_out (Obsv.Causal.to_jsonl c))
    causal

(* a single payment's blame report: root is the run's first causal node
   (the initial on_start send at t=0) *)
let print_payment_blame c ~delta ~sink =
  if Obsv.Causal.node_count c = 0 || sink < 0 then
    Fmt.pr "blame: no settlement sink recorded (payment never paid out)@."
  else begin
    let r = Obsv.Blame.attribute ~delta c ~root:0 ~sink in
    Fmt.pr "%a@." Obsv.Blame.pp_report r;
    Fmt.pr "critical path:@.%a@." (Obsv.Blame.pp_path c) r
  end

(* --- hot-path profiling (profile / load / chaos) --- *)

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile engine dispatch (wall time + minor-heap allocation per \
           payment x process x event kind) and print the hot-site table \
           after the run. See docs/observability.md, section Profiling.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Write the JSON profile report to $(docv) ('-' for stdout). \
           Deterministic except the flat \"prof_timing\" objects (host \
           wall clock), which scripts/strip_timing.py removes.")

let collapsed_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "collapsed-out" ] ~docv:"FILE"
        ~doc:
          "Write the profile as collapsed stacks (payment;process;kind \
           wall_ns) to $(docv) ('-' for stdout) — load it in speedscope \
           or feed it to flamegraph.pl.")

(* any profile sink requested? then the engine carries a profiler *)
let prof_wanted ~profile ~profile_out ~collapsed_out =
  if profile || profile_out <> None || collapsed_out <> None then
    Some (Obsv.Prof.create ~now_ns:Fleet.now_ns ())
  else None

let dump_prof ?(top = 15) ~table prof ~profile_out ~collapsed_out =
  Option.iter
    (fun p ->
      if table then Fmt.pr "%a" (Obsv.Prof.pp_top ~n:top) p;
      write_sink profile_out (Obsv.Prof.to_json p);
      write_sink collapsed_out (Obsv.Prof.to_collapsed p))
    prof

(* --- online runtime verification (chaos / load / hunt) --- *)

let monitor_flag =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:
          "Arm the online runtime monitor: the safety subset is re-checked \
           after every engine dispatch, so the run reports the exact \
           sim-time of first breach. The final verdict always agrees with \
           the post-hoc report. See docs/observability.md, section Runtime \
           verification.")

let stop_on_violation_flag =
  Arg.(
    value & flag
    & info [ "stop-on-violation" ]
        ~doc:
          "End the run at the first safety breach (implies --monitor): the \
           engine exits with status violation-stop at the exact sim-time \
           the monitor tripped.")

let series_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series-out" ] ~docv:"FILE"
        ~doc:
          "Sample sim-time telemetry (queue depth, in-flight work, \
           per-escrow liquidity) on a fixed interval and write the series \
           as JSON lines to $(docv) ('-' for stdout). Deterministic.")

let bundle_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundle-out" ] ~docv:"FILE"
        ~doc:
          "On a safety violation or a stuck run, write the forensic \
           flight-recorder bundle — first breach, the last trace entries \
           before it, a metrics snapshot and the one-line repro — as JSON \
           to $(docv) ('-' for stdout). Deterministic: replaying the repro \
           reproduces the bundle byte for byte.")

(* --monitor/--stop-on-violation/--bundle-out arm the monitor; --series-out
   arms the sampler; --bundle-out arms the flight recorder, a bounded view
   of the run's trace *)
let watch_wanted ~monitor ~stop_on_violation ~series_out ~bundle_out =
  let monitor =
    if monitor || stop_on_violation || bundle_out <> None then
      Some (Obsv.Monitor.create ~stop_on_violation ())
    else None
  in
  let sampler = Option.map (fun _ -> Obsv.Sampler.create ()) series_out in
  let recorder =
    Option.map (fun _ -> Sim.Trace.create ~capacity:256 ()) bundle_out
  in
  (monitor, sampler, recorder)

let print_monitor_verdict monitor =
  Option.iter
    (fun m ->
      match Obsv.Monitor.first_trip m with
      | Some tr ->
          Fmt.pr "monitor: first breach %s at t=%d: %s@."
            tr.Obsv.Monitor.property tr.Obsv.Monitor.at
            tr.Obsv.Monitor.detail
      | None ->
          Fmt.pr "monitor: clean after %d steps@." (Obsv.Monitor.steps m))
    monitor

(* ------------------------------ run shape ------------------------------ *)

(* Integer options with a range: cmdliner refuses an out-of-range value at
   parse time, naming the option, before any run is built. *)
let int_in ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some n when n < lo -> Error (Printf.sprintf "must be >= %d, got %s" lo s)
    | Some _ -> Error (Printf.sprintf "must be <= %d, got %s" hi s)
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let hops_arg ?(doc = "Escrows.") default =
  Arg.(value
       & opt (int_in ~hi:Traffic.Workload.max_hops 1) default
       & info [ "n"; "hops" ] ~doc)

let gst_arg =
  Arg.(value & opt (some (int_in 0)) None
       & info [ "gst" ] ~doc:"Partial synchrony with this GST (default: synchronous).")

(* a drift bound is a rate below one: fewer than 1_000_000 ppm *)
let drift_ppm_conv = int_in ~hi:999_999 0

(* -------------------- protocol and fault vocabulary --------------------- *)

(* -p: one of the single-payment protocols, spelled by the one protocol
   table *)
let protocol_arg ?(doc = "Protocol: sync | naive | htlc | weak | committee.")
    () =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Proto.of_string ~among:Proto.single s)
  in
  Arg.(value
       & opt (conv (parse, Fmt.of_to_string Proto.name)) Proto.Sync
       & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let faults_arg ~doc =
  Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"STRATEGY@ROLE" ~doc)

(* --fault specs read against the run's protocol and chain: a bad one is a
   usage error *)
let read_faults ~prefix ~protocol ~hops specs =
  List.map
    (fun spec ->
      match Runner.fault_of_string (Proto.runner protocol) ~hops spec with
      | Ok f -> f
      | Error e ->
          Fmt.epr "%s%s@." prefix e;
          exit 2)
    specs

(* ------------------------------- pay ---------------------------------- *)

let pay_cmd =
  let run protocol hops value commission drift gst patience seed trace_wanted
      jsonl_wanted metrics_out spans_out =
    arm_span_capture spans_out;
    let network =
      match gst with
      | None -> Xchain.Api.Synchronous
      | Some gst -> Xchain.Api.Partially_synchronous { gst }
    in
    let protocol =
      match Proto.runner protocol with
      | Runner.Weak cfg -> Runner.Weak { cfg with patience }
      | p -> p
    in
    let result =
      Xchain.Api.pay ~hops ~value ~commission ~drift_ppm:drift ~network
        ~protocol ~seed ()
    in
    Fmt.pr "%a@." Xchain.Api.pp_result result;
    if trace_wanted then
      Fmt.pr "@.trace:@.%a@."
        (Sim.Trace.pp ~msg:Msg.pp ~obs:Obs.pp)
        result.Xchain.Api.outcome.Runner.trace;
    if jsonl_wanted then
      print_string (Runner.trace_jsonl result.Xchain.Api.outcome.Runner.trace);
    dump_telemetry ~metrics_out ~spans_out;
    if result.Xchain.Api.all_properties_hold then 0 else 1
  in
  let hops = hops_arg ~doc:"Number of escrows." 2 in
  let value = Arg.(value & opt (int_in 1) 1000 & info [ "value" ] ~doc:"Amount Bob is owed.") in
  let commission =
    Arg.(value & opt (int_in 0) 10 & info [ "commission" ] ~doc:"Per-connector commission.")
  in
  let drift =
    Arg.(value & opt drift_ppm_conv 10_000 & info [ "drift-ppm" ] ~doc:"Clock drift in ppm.")
  in
  let patience =
    Arg.(value & opt int 20_000 & info [ "patience" ] ~doc:"Weak-protocol patience.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule seed.") in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")
  in
  let jsonl =
    Arg.(value & flag
         & info [ "trace-jsonl" ]
             ~doc:"Print the trace as JSON lines (machine-readable).")
  in
  Cmd.v
    (Cmd.info "pay" ~doc:"Run one cross-chain payment and check the paper's properties")
    Term.(
      const run $ protocol_arg () $ hops $ value $ commission $ drift $ gst_arg
      $ patience $ seed $ trace $ jsonl $ metrics_out_arg $ spans_out_arg)

(* ---------------------------- experiment ------------------------------- *)

let experiment_cmd =
  let run name full j metrics_out spans_out =
    arm_span_capture spans_out;
    let scale = if full then Xchain.Experiments.Full else Xchain.Experiments.Quick in
    let domains = resolve_domains ~cmd:"experiment" j in
    let code =
      match name with
      | "all" ->
          List.iter
            (fun t -> Fmt.pr "%a@." Xchain.Table.render t)
            (Xchain.Experiments.all ~domains scale);
          0
      | "e12" ->
          (* the one experiment with a fleet-sharded inner loop, so the
             named path must forward -j like the "all" path does *)
          Fmt.pr "%a@." Xchain.Table.render
            (Xchain.Experiments.e12_exhaustive_corners ~domains scale);
          0
      | name -> (
          match Xchain.Experiments.by_name name with
          | Some f ->
              Fmt.pr "%a@." Xchain.Table.render (f scale);
              0
          | None ->
              Fmt.epr "unknown experiment %S (use e1..e12 or all)@." name;
              2)
    in
    if code = 0 then dump_telemetry ~metrics_out ~spans_out;
    code
  in
  let name_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"NAME" ~doc:"Experiment name (e1..e12) or 'all'.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Full sample sizes (400 runs/config) instead of quick.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the reproduction tables (see EXPERIMENTS.md)")
    Term.(const run $ name_arg $ full $ jobs_arg $ metrics_out_arg
          $ spans_out_arg)

(* ------------------------------ params --------------------------------- *)

let params_cmd =
  let run hops delta sigma drift margin =
    let p =
      Params.derive { Params.hops; delta; sigma; drift_ppm = drift; margin }
    in
    Fmt.pr "%a@." Params.pp p;
    (match Params.check p with
    | Ok () ->
        Fmt.pr "recurrence check: ok@.";
        0
    | Error e ->
        Fmt.pr "recurrence check: %s@." e;
        1)
  in
  let delta = Arg.(value & opt (int_in 1) 100 & info [ "delta" ] ~doc:"Message delay bound.") in
  let sigma = Arg.(value & opt (int_in 0) 10 & info [ "sigma" ] ~doc:"Computation bound.") in
  let drift = Arg.(value & opt drift_ppm_conv 10_000 & info [ "drift-ppm" ] ~doc:"Clock drift, ppm.") in
  let margin = Arg.(value & opt (int_in 1) 5 & info [ "margin" ] ~doc:"Safety margin, ticks.") in
  Cmd.v
    (Cmd.info "params" ~doc:"Derive the a/d timeout windows (the Thm 1 fine-tuning)")
    Term.(const run $ hops_arg 3 $ delta $ sigma $ drift $ margin)

(* ------------------------------- audit --------------------------------- *)

let audit_cmd =
  let run protocol hops gst seed fault_specs metrics_out spans_out =
    arm_span_capture spans_out;
    let faults = read_faults ~prefix:"" ~protocol ~hops fault_specs in
    let cfg =
      {
        (Runner.default_config ~hops ~seed) with
        network =
          (match gst with None -> Runner.Sync | Some gst -> Runner.Psync { gst });
        faults;
      }
    in
    let outcome = Runner.run cfg (Proto.runner protocol) in
    let report = Xchain.Report.build outcome in
    Fmt.pr "%a@." Xchain.Report.pp report;
    dump_telemetry ~metrics_out ~spans_out;
    if Props.Verdict.all_hold report.Xchain.Report.verdicts then 0 else 1
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule seed.") in
  let faults =
    faults_arg
      ~doc:"Byzantine substitution, e.g. thief-escrow AT e0 (strategy@role), mute AT bob;                    repeatable."
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run a payment and print the full postmortem (verdicts, promise              breaches, each participant's conformance to its automaton)")
    Term.(const run $ protocol_arg () $ hops_arg 3 $ gst_arg $ seed $ faults
          $ metrics_out_arg $ spans_out_arg)

(* ------------------------------- metrics ------------------------------- *)

(* Populate the registry with one probe run of each workload family so the
   exposition lists every metric family the binary can emit, then print
   either the catalogue (default) or the full exposition.  Span capture
   stays off during the probes: the catalogue is about metric names. *)
let metrics_cmd =
  let run full =
    let silently f =
      (* Probe runs must not print their own reports. *)
      ignore (f ())
    in
    silently (fun () ->
        Runner.run (Runner.default_config ~hops:3 ~seed:1) Runner.Sync_timebound);
    silently (fun () ->
        Runner.run
          { (Runner.default_config ~hops:3 ~seed:1) with
            network = Runner.Psync { gst = 150 } }
          (Proto.runner Proto.Committee));
    silently (fun () ->
        Deals.Deal_runner.run
          (Deals.Deal_runner.default_config
             (Deals.Deal.two_party_swap ())
             Deals.Deal_runner.Timelock));
    silently (fun () ->
        (* a routed load registers the xchain_load_* / xchain_route_*
           families the linear probes never touch *)
        match
          Traffic.Workload.of_string "payments=4 topology=hub:3:3000:5 splits=2"
        with
        | Ok workload -> Traffic.Load.run ~workload ~seed:1 ()
        | Error e -> invalid_arg e);
    if full then print_string (Obsv.Prometheus.render Obsv.Metrics.default)
    else begin
      Fmt.pr "# metric families registered after probe workloads@.";
      List.iter
        (fun (name, kind, help) -> Fmt.pr "%-42s %-9s %s@." name kind help)
        (Obsv.Metrics.families Obsv.Metrics.default)
    end;
    0
  in
  let full =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Print the full Prometheus exposition (per-label samples)                    instead of the family catalogue.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"List every telemetry metric the simulator can emit (runs small               probe workloads to populate the registry)")
    Term.(const run $ full)

(* -------------------------------- deal --------------------------------- *)

let deal_cmd =
  let run which protocol gst seed lazy_party =
    let deal =
      match which with
      | "swap" -> Deals.Deal.two_party_swap ()
      | "cycle" -> Deals.Deal.three_cycle ()
      | "broker" -> Deals.Deal.broker_dag ()
      | "disconnected" -> Deals.Deal.disconnected_pair ()
      | other ->
          Fmt.epr "unknown deal %S (swap | cycle | broker | disconnected)@."
            other;
          exit 2
    in
    let proto =
      match protocol with
      | "timelock" -> Deals.Deal_runner.Timelock
      | "cbc" -> Deals.Deal_runner.Cbc
      | other ->
          Fmt.epr "unknown protocol %S (timelock | cbc)@." other;
          exit 2
    in
    let cfg =
      { (Deals.Deal_runner.default_config deal proto) with gst; seed }
    in
    let outcome =
      match lazy_party with
      | None -> Deals.Deal_runner.run cfg
      | Some p when p < 0 || p >= Deals.Deal.parties deal ->
          Fmt.epr "party %d is not in the deal (0 .. %d)@." p
            (Deals.Deal.parties deal - 1);
          exit 2
      | Some p ->
          Deals.Deal_byzantine.run_with_faults cfg
            ~faults:[ (p, Deals.Deal_byzantine.Lazy_claim) ]
    in
    Fmt.pr "%a@.well-formed: %b@." Deals.Deal.pp deal
      (Deals.Deal.well_formed deal);
    List.iter
      (fun v -> Fmt.pr "%a@." Deals.Deal_props.pp v)
      (Deals.Deal_props.all outcome);
    List.iter
      (fun p ->
        Fmt.pr "party %d: gained %a, lost %a@." p Ledger.Asset.Bag.pp
          (Deals.Deal_runner.gained outcome p)
          Ledger.Asset.Bag.pp
          (Deals.Deal_runner.lost outcome p))
      (List.init (Deals.Deal.parties deal) Fun.id);
    if Deals.Deal_props.all_hold (Deals.Deal_props.all outcome) then 0 else 1
  in
  let which =
    Arg.(value & pos 0 string "swap"
         & info [] ~docv:"DEAL" ~doc:"swap | cycle | broker | disconnected.")
  in
  let protocol =
    Arg.(value & opt string "timelock"
         & info [ "p"; "protocol" ] ~doc:"timelock | cbc.")
  in
  let gst =
    Arg.(value & opt (some int) None
         & info [ "gst" ] ~doc:"Partial synchrony with this GST.")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Schedule seed.") in
  let lazy_party =
    Arg.(value & opt (some int) None
         & info [ "lazy" ] ~docv:"PARTY"
             ~doc:"Substitute this party with the lazy-claim Byzantine                    strategy.")
  in
  Cmd.v
    (Cmd.info "deal"
       ~doc:"Run a Herlihy-Liskov-Shrira cross-chain deal (§5) and check its              properties")
    Term.(const run $ which $ protocol $ gst $ seed $ lazy_party)

(* --- graph topologies (chaos / hunt / load / route) --- *)

let topology_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Routing.Topology.of_string s)
  in
  Arg.conv (parse, Routing.Topology.pp)

let topology_doc extra =
  "Payment graph to route over: linear:H | hub:K | er:N:E:SEED \
   | sf:N:D:SEED | graph:N;U>V:LIQ:COMM,... (see docs/routing.md). " ^ extra

let topology_arg ~extra =
  Arg.(value & opt (some topology_conv) None
       & info [ "topology" ] ~docv:"SPEC" ~doc:(topology_doc extra))

(* chaos and hunt study one payment at a time, so a graph reduces to the
   single path the router would pick for it at full liquidity: the run's
   hop count becomes that path's length. *)
let hops_of_topology ~cmd ~value ~hops = function
  | None -> hops
  | Some topo ->
      let router = Routing.Router.create topo in
      let avail e = Routing.Topology.capacity topo.Routing.Topology.edges.(e) in
      (match Routing.Router.route router ~avail ~value ~max_splits:1 with
      | Ok (s :: _) -> List.length s.Routing.Router.path
      | Ok [] -> assert false (* route never returns an empty split list *)
      | Error e ->
          Fmt.epr "xchain %s: --topology: %s@." cmd e;
          exit 2)

(* -------------------------------- chaos -------------------------------- *)

(* The one fault-plan reader (chaos / trace / load): --plan-file, which
   wins, or --plan, parsed by the plan grammar and validated against the
   [nprocs] pids the run will have, so a plan that cannot apply is a usage
   error before the run starts. *)
let read_plan ~cmd ~nprocs ?file plan =
  let fail fmt =
    Fmt.kstr (fun s -> Fmt.epr "xchain %s: %s@." cmd s; exit 2) fmt
  in
  let parse ~what s =
    match Faults.Fault_plan.of_string s with
    | Error e -> fail "bad fault plan (%s): %s" what e
    | Ok p -> (
        match Faults.Fault_plan.validate p ~nprocs with
        | Ok () -> p
        | Error e -> fail "bad fault plan: %s" e)
  in
  match (file, plan) with
  | Some file, _ -> (
      match In_channel.with_open_text file In_channel.input_all with
      | contents -> parse ~what:file (String.trim contents)
      | exception Sys_error msg -> fail "cannot read plan file: %s" msg)
  | None, Some s -> parse ~what:"--plan" s
  | None, None -> Faults.Fault_plan.none

let chaos_cmd =
  let run protocol hops topology seed plan plan_file soak runs j out repro_out
      metrics_out trace_out dag_out blame profile profile_out collapsed_out
      fault_specs monitor stop_on_violation series_out bundle_out =
    let hops = hops_of_topology ~cmd:"chaos" ~value:1000 ~hops topology in
    if out <> None && not soak then begin
      Fmt.epr "xchain chaos: --out requires --soak@.";
      exit 2
    end;
    if soak && (stop_on_violation || series_out <> None || fault_specs <> [])
    then begin
      Fmt.epr
        "xchain chaos: --soak is incompatible with \
         --stop-on-violation/--series-out/--fault (replay a single run \
         from its repro line for per-run telemetry)@.";
      exit 2
    end;
    let faults = read_faults ~prefix:"xchain chaos: " ~protocol ~hops fault_specs in
    let plan =
      read_plan ~cmd:"chaos"
        ~nprocs:(Runner.process_count ~hops (Proto.runner protocol))
        ?file:plan_file plan
    in
    let prof = prof_wanted ~profile ~profile_out ~collapsed_out in
    let code =
      if soak then begin
        let domains = resolve_domains ~cmd:"chaos" j in
        (* live tty health line: outcome taxonomy instead of a bare
           completion count, only when the monitor is armed *)
        let on_health =
          if monitor && Unix.isatty Unix.stderr then
            Some
              (fun (h : Xchain.Chaos.health) ->
                Printf.eprintf
                  "\rchaos soak: %d/%d commit:%d abort:%d stuck:%d \
                   violation:%d%!"
                  h.Xchain.Chaos.h_done h.Xchain.Chaos.h_total
                  h.Xchain.Chaos.h_commits h.Xchain.Chaos.h_aborts
                  h.Xchain.Chaos.h_stuck h.Xchain.Chaos.h_violations;
                if h.Xchain.Chaos.h_done >= h.Xchain.Chaos.h_total then
                  prerr_newline ())
          else None
        in
        let on_progress =
          if on_health <> None then None else tty_progress "chaos soak"
        in
        let s =
          Xchain.Chaos.soak ~hops ~protocol ~runs ~seed ~domains ?prof
            ~monitor ?on_progress ?on_health ()
        in
        Fmt.pr "%a@." Xchain.Chaos.pp_summary s;
        dump_prof ~table:profile prof ~profile_out ~collapsed_out;
        write_sink out (Xchain.Chaos.summary_to_json ~hops ~protocol ~seed s);
        (match repro_out with
        | None -> ()
        | Some file ->
            let lines =
              List.map Xchain.Chaos.repro_line s.Xchain.Chaos.violations
            in
            write_sink (Some file)
              (String.concat "" (List.map (fun l -> l ^ "\n") lines)));
        (* forensic bundle for the soak's first violation: same (seed,
           plan), so the replay is the violating run, bit for bit *)
        (match (bundle_out, s.Xchain.Chaos.violations) with
        | Some _, v :: _ ->
            write_sink bundle_out
              (Xchain.Chaos.replay_bundle ~hops ~protocol
                 ~plan:v.Xchain.Chaos.plan ~seed:v.Xchain.Chaos.seed ())
        | _ -> ());
        if s.Xchain.Chaos.violations = [] then 0 else 1
      end
      else begin
        let mon, sampler, recorder =
          watch_wanted ~monitor ~stop_on_violation ~series_out ~bundle_out
        in
        let causal = causal_wanted ~trace_out ~dag_out ~blame in
        let r =
          Xchain.Chaos.run_one ~hops ~protocol ?causal ?prof ?monitor:mon
            ?sampler ?recorder ~faults ~plan ~seed ()
        in
        Fmt.pr "plan: %a@.classification: %s@." Faults.Fault_plan.pp
          r.Xchain.Chaos.plan
          (Xchain.Chaos.classification_name r.Xchain.Chaos.classification);
        List.iter
          (fun v ->
            Fmt.pr "violated %s: %s@." v.Props.Verdict.property
              v.Props.Verdict.detail)
          r.Xchain.Chaos.failures;
        print_monitor_verdict mon;
        (match sampler with
        | None -> ()
        | Some s -> write_sink series_out (Obsv.Sampler.to_jsonl s));
        (match (recorder, mon, r.Xchain.Chaos.classification) with
        | ( Some rc,
            Some m,
            (Xchain.Chaos.Safety_violation | Xchain.Chaos.Stuck) ) ->
            write_sink bundle_out
              (Xchain.Chaos.bundle ~monitor:m ~recorder:rc r)
        | _ -> ());
        let cls = Xchain.Chaos.classification_name r.Xchain.Chaos.classification in
        if blame then
          Option.iter
            (fun c ->
              let cfg = Runner.default_config ~hops ~seed in
              print_payment_blame c
                ~delta:(cfg.Runner.delta + cfg.Runner.sigma)
                ~sink:
                  (if r.Xchain.Chaos.paid_node >= 0 then
                     r.Xchain.Chaos.paid_node
                   else r.Xchain.Chaos.settled_node))
            causal;
        dump_causal causal ~trace_out ~dag_out
          ~payments:
            [
              ( Runner.protocol_name (Proto.runner protocol),
                0,
                0,
                r.Xchain.Chaos.end_time,
                cls );
            ];
        dump_prof ~table:profile prof ~profile_out ~collapsed_out;
        match r.Xchain.Chaos.classification with
        | Xchain.Chaos.Safety_violation ->
            Fmt.pr "repro: %s@." (Xchain.Chaos.repro_line r);
            1
        | _ -> 0
      end
    in
    dump_telemetry ~metrics_out ~spans_out:None;
    code
  in
  let protocol =
    protocol_arg
      ~doc:"Protocol under test: sync | naive | htlc | weak | committee." ()
  in
  let hops = hops_arg 2 in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Schedule seed (soak: seed of run 0).")
  in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan, e.g. 'drop *>3 0.2; crash 2AT500+800' (see \
                   docs/fault_injection.md for the grammar). Default: none.")
  in
  let plan_file =
    Arg.(value & opt (some string) None
         & info [ "plan-file" ] ~docv:"FILE"
             ~doc:"Read the fault plan from $(docv) (overrides --plan).")
  in
  let soak =
    Arg.(value & flag
         & info [ "soak" ]
             ~doc:"Sweep random fault plans across seeds and classify every \
                   run; exit non-zero on any safety violation.")
  in
  let runs =
    Arg.(value & opt (int_in 0) 200
         & info [ "runs" ] ~doc:"Soak: number of random plans to run.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Soak: write the summary as JSON to $(docv) ('-' for \
                   stdout). Deterministic except the trailing timing block \
                   (strip it with scripts/strip_timing.py before comparing \
                   across -j values).")
  in
  let repro_out =
    Arg.(value & opt (some string) None
         & info [ "repro-out" ] ~docv:"FILE"
             ~doc:"Soak: write one repro line per safety violation to $(docv) \
                   ('-' for stdout).")
  in
  let faults =
    faults_arg
      ~doc:"Byzantine substitution on top of the fault plan, e.g. \
            thief-escrow AT e0 (strategy@role), exactly as xchain audit \
            --fault; repeatable. Repro lines round-trip it."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run payments under a declarative fault plan (lossy links,               crashes, partitions), or soak hundreds of random plans and check              the safety properties")
    Term.(const run $ protocol $ hops
          $ topology_arg
              ~extra:
                "The run's hop count becomes the cheapest source-to-sink \
                 path's length (overrides --hops)."
          $ seed $ plan $ plan_file $ soak $ runs
          $ jobs_arg $ out $ repro_out $ metrics_out_arg $ trace_out_arg
          $ dag_out_arg $ blame_arg $ profile_flag $ profile_out_arg
          $ collapsed_out_arg $ faults $ monitor_flag
          $ stop_on_violation_flag $ series_out_arg $ bundle_out_arg)

(* -------------------------------- hunt --------------------------------- *)

let hunt_cmd =
  let run protocol hops topology seed budget gen_size j baseline no_shrink
      max_shrink_trials out corpus_out repros_out metrics_out bundle_out =
    let hops = hops_of_topology ~cmd:"hunt" ~value:1000 ~hops topology in
    if budget <= 0 then begin
      Fmt.epr "xchain hunt: --budget must be positive@.";
      exit 2
    end;
    if gen_size <= 0 then begin
      Fmt.epr "xchain hunt: --gen must be positive@.";
      exit 2
    end;
    let domains = resolve_domains ~cmd:"hunt" j in
    let r =
      Hunt.Search.hunt ~hops ~protocol ~gen_size ~domains ~baseline
        ~shrink:(not no_shrink) ?max_shrink_trials
        ?on_progress:(tty_progress "hunt") ~budget ~seed ()
    in
    Fmt.pr "@[<v>%a@]@." Hunt.Search.pp_report r;
    write_sink out (Hunt.Search.report_to_json r);
    write_sink corpus_out (Hunt.Search.corpus_to_jsonl r);
    (match repros_out with
    | None -> ()
    | Some file ->
        let lines = Hunt.Search.repro_lines r in
        write_sink (Some file)
          (String.concat "" (List.map (fun l -> l ^ "\n") lines)));
    (* forensic bundle for the hunt's first violating witness: replay its
       (seed, plan) *)
    (match
       ( bundle_out,
         List.find_opt
           (fun (e : Hunt.Search.entry) ->
             e.Hunt.Search.classification = Xchain.Chaos.Safety_violation)
           r.Hunt.Search.corpus )
     with
    | Some _, Some e ->
        write_sink bundle_out
          (Xchain.Chaos.replay_bundle ~hops ~protocol ~plan:e.Hunt.Search.plan
             ~seed:e.Hunt.Search.seed ())
    | _ -> ());
    dump_telemetry ~metrics_out ~spans_out:None;
    if r.Hunt.Search.violations > 0 then 1 else 0
  in
  let protocol =
    protocol_arg
      ~doc:"Protocol under test: sync | naive | htlc | weak | committee." ()
  in
  let hops = hops_arg 2 in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"Root seed; the whole hunt (corpus, repros) is a pure \
                   function of it.")
  in
  let budget =
    Arg.(value & opt int 200
         & info [ "budget" ] ~docv:"N"
             ~doc:"Total chaos runs to spend searching.")
  in
  let gen_size =
    Arg.(value & opt int 50
         & info [ "gen" ] ~docv:"N"
             ~doc:"Runs per generation (generation 0 replays the uniform \
                   soak stream; later generations mutate the corpus).")
  in
  let baseline =
    Arg.(value & flag
         & info [ "baseline" ]
             ~doc:"Also run the uniform soak stream at the full budget and \
                   report its distinct signature count for comparison.")
  in
  let no_shrink =
    Arg.(value & flag
         & info [ "no-shrink" ]
             ~doc:"Skip minimizing stuck / violating witnesses.")
  in
  let max_shrink_trials =
    Arg.(value & opt (some int) None
         & info [ "max-shrink-trials" ] ~docv:"N"
             ~doc:"Cap replays per shrunk witness (default 400).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the hunt report as JSON to $(docv) ('-' for \
                   stdout). Deterministic except the trailing timing block \
                   (strip it with scripts/strip_timing.py before comparing \
                   across -j values).")
  in
  let corpus_out =
    Arg.(value & opt (some string) None
         & info [ "corpus-out" ] ~docv:"FILE"
             ~doc:"Write the corpus (one JSON object per discovered \
                   signature, discovery order) to $(docv) ('-' for stdout).")
  in
  let repros_out =
    Arg.(value & opt (some string) None
         & info [ "repros-out" ] ~docv:"FILE"
             ~doc:"Write one shrunken repro line per stuck / violating \
                   signature to $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Coverage-guided adversarial fault-plan search: mutate plans \
             toward unseen outcome signatures, then shrink every stuck or \
             violating witness to a minimal one-line repro")
    Term.(const run $ protocol $ hops
          $ topology_arg
              ~extra:
                "The hunt explores faults along the cheapest source-to-sink \
                 path (its length overrides --hops); signatures carry a \
                 path-shape bucket."
          $ seed $ budget $ gen_size $ jobs_arg
          $ baseline $ no_shrink $ max_shrink_trials $ out $ corpus_out
          $ repros_out $ metrics_out_arg $ bundle_out_arg)

(* ------------------------------- explore ------------------------------- *)

let explore_cmd =
  let run protocol hops drift max_corners j out metrics_out =
    let protocol = Proto.runner protocol in
    let domains = resolve_domains ~cmd:"explore" j in
    match
      Xchain.Explore.sweep ~hops ~drift_ppm:drift ~max_corners ~domains
        ?on_progress:(tty_progress "explore") ~protocol ()
    with
    | exception Invalid_argument e ->
        Fmt.epr "xchain explore: %s@." e;
        exit 2
    | r ->
        Fmt.pr "explore: %d hops, %d corners — %d violations@." hops
          r.Xchain.Explore.corners r.Xchain.Explore.violations;
        (match r.Xchain.Explore.first_witness with
        | Some w -> Fmt.pr "first witness: %s@." w
        | None -> ());
        write_sink out
          (Xchain.Explore.result_to_json ~hops ~drift_ppm:drift ~protocol r);
        dump_telemetry ~metrics_out ~spans_out:None;
        if r.Xchain.Explore.violations = 0 then 0 else 1
  in
  let protocol =
    protocol_arg
      ~doc:"Protocol to enumerate: sync | naive | htlc (TM protocols are not \
            corner-enumerable)." ()
  in
  let hops = hops_arg 1 in
  let drift =
    Arg.(value & opt drift_ppm_conv 50_000
         & info [ "drift-ppm" ] ~doc:"Clock drift bound for the corner clocks, ppm.")
  in
  let max_corners =
    Arg.(value & opt int 600_000
         & info [ "max-corners" ]
             ~doc:"Refuse instances needing more corners than this.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the sweep result as JSON to $(docv) ('-' for \
                   stdout). Deterministic except the trailing timing block.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively enumerate every extremal delay x clock corner of a \
             small payment instance and check Definition 1 on each — \
             exit 0 iff the sweep is clean. The corner space shards over \
             -j domains with byte-identical results")
    Term.(const run $ protocol $ hops $ drift $ max_corners $ jobs_arg $ out
          $ metrics_out_arg)

(* ------------------------------- trace --------------------------------- *)

let trace_cmd =
  let run protocol hops gst seed plan out trace_out dag_out =
    let protocol = Proto.runner protocol in
    let plan =
      read_plan ~cmd:"trace" ~nprocs:(Runner.process_count ~hops protocol) plan
    in
    let causal = Obsv.Causal.create () in
    let cfg =
      {
        (Runner.default_config ~hops ~seed) with
        Runner.network =
          (match gst with
          | None -> Runner.Sync
          | Some gst -> Runner.Psync { gst });
        fault_plan = Some plan;
        causal = Some causal;
      }
    in
    let o, cost = Fleet.measure (fun () -> Runner.run cfg protocol) in
    let committed = o.Runner.paid_node >= 0 in
    Fmt.pr "protocol %s, %d hops, seed %d: %s, engine stopped at t=%d@."
      (Runner.protocol_name protocol)
      hops seed
      (if committed then "commit" else "abort")
      o.Runner.end_time;
    Fmt.pr "causal graph: %d nodes, %d edges@."
      (Obsv.Causal.node_count causal)
      (Obsv.Causal.edge_count causal);
    print_payment_blame causal
      ~delta:(cfg.Runner.delta + cfg.Runner.sigma)
      ~sink:(if committed then o.Runner.paid_node else o.Runner.settled_node);
    let slice_end =
      if o.Runner.settled_node >= 0 then
        Obsv.Causal.time_of causal o.Runner.settled_node
      else o.Runner.end_time
    in
    dump_causal (Some causal) ~trace_out ~dag_out
      ~payments:
        [
          ( Runner.protocol_name protocol,
            0,
            0,
            slice_end,
            if committed then "commit" else "abort" );
        ];
    (match out with
    | None -> ()
    | Some _ ->
        (* same convention as chaos/explore/load reports: everything
           deterministic except the trailing flat "timing" object *)
        let sink =
          if committed then o.Runner.paid_node else o.Runner.settled_node
        in
        let blame_json =
          if sink >= 0 then
            Obsv.Blame.report_to_json
              (Obsv.Blame.attribute
                 ~delta:(cfg.Runner.delta + cfg.Runner.sigma)
                 causal ~root:0 ~sink)
          else "null"
        in
        write_sink out
          (Printf.sprintf
             "{\"trace\":{\"protocol\":\"%s\",\"hops\":%d,\"seed\":%d,\
              \"committed\":%b,\"end_time\":%d,\"events\":%d,\"nodes\":%d,\
              \"edges\":%d},\"blame\":%s%s}\n"
             (Runner.protocol_name protocol)
             hops seed committed o.Runner.end_time o.Runner.events
             (Obsv.Causal.node_count causal)
             (Obsv.Causal.edge_count causal)
             blame_json
             (Fleet.timing_json ~events:o.Runner.events cost)));
    0
  in
  let hops = hops_arg 2 in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule seed.") in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan to run the payment under (see \
                   docs/fault_injection.md). Default: none.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the trace report (graph stats + blame \
                   decomposition) as JSON to $(docv) ('-' for stdout). \
                   Deterministic except the trailing timing block.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one payment with causal tracing on: reconstruct its \
             happens-before graph, print the critical path and the blame \
             decomposition of its end-to-end latency, and export the graph \
             as Chrome trace-event JSON or a DAG dump")
    Term.(const run $ protocol_arg () $ hops $ gst_arg $ seed $ plan $ out
          $ trace_out_arg $ dag_out_arg)

(* -------------------------------- load --------------------------------- *)

(* A workload flag has no default of its own: when given, it contributes
   one key=value field, applied after the command's base line and the
   fields of --spec (see Traffic.Workload.of_command_line). *)
let workload_flag ?(names = []) ?(docv = "INT") long ~doc =
  let arg =
    Arg.(value & opt (some string) None & info (names @ [ long ]) ~docv ~doc)
  in
  Term.(const (Option.map (fun v -> ("--" ^ long, v))) $ arg)

let workload_flags flags =
  List.fold_right
    (fun f acc -> Term.(const (fun x l -> Option.to_list x @ l) $ f $ acc))
    flags (Term.const [])

let read_workload ~cmd ~base ?spec flags =
  match Traffic.Workload.of_command_line ~base ?spec flags with
  | Ok w -> w
  | Error e ->
      Fmt.epr "xchain %s: %s@." cmd e;
      exit 2

let load_cmd =
  let run spec flags seed plan plan_file replications j out metrics_out
      spans_out trace_out dag_out blame profile profile_out collapsed_out
      monitor stop_on_violation series_out bundle_out =
    arm_span_capture spans_out;
    let fail fmt = Fmt.kstr (fun s -> Fmt.epr "xchain load: %s@." s; exit 2) fmt in
    let workload = read_workload ~cmd:"load" ~base:"payments=100" ?spec flags in
    let plan =
      read_plan ~cmd:"load" ~nprocs:(Traffic.Load.hosts workload)
        ?file:plan_file plan
    in
    if replications < 1 then fail "--replications must be >= 1";
    if replications > 1 then begin
      (* Per-run telemetry sinks interleave nondeterministically across
         domains; the replication path only produces the deterministic
         aggregate (plus the strippable timing block). *)
      if
        spans_out <> None || trace_out <> None || dag_out <> None || blame
        || metrics_out <> None || profile || profile_out <> None
        || collapsed_out <> None || monitor || stop_on_violation
        || series_out <> None || bundle_out <> None
      then
        fail
          "--replications > 1 is incompatible with \
           --spans-out/--metrics-out/--trace-out/--dag-out/--blame/--profile/--monitor/--series-out/--bundle-out \
           (run a single replication for per-run telemetry)";
      let domains = resolve_domains ~cmd:"load" j in
      let outcomes, stats =
        Fleet.run ~domains
          ?on_progress:(tty_progress "load replications")
          ~jobs:replications
          (fun i ->
            Traffic.Load.run ~plan ~workload ~seed:(seed + i) ())
      in
      let reports =
        Array.map
          (function
            | Error (f : Fleet.failure) ->
                fail "replication %d raised: %s" f.Fleet.job f.Fleet.message
            | Ok r -> r)
          outcomes
      in
      Fmt.pr "load: %a@." Traffic.Workload.pp workload;
      Fmt.pr "replications %d: seeds %d..%d, plan %s@." replications seed
        (seed + replications - 1)
        (Faults.Fault_plan.to_string plan);
      Array.iteri
        (fun i (r : Traffic.Load.report) ->
          Fmt.pr
            "  seed %d: committed %d, aborted %d, rejected %d, stuck %d, \
             violated %d@."
            (seed + i) r.Traffic.Load.committed r.Traffic.Load.aborted
            r.Traffic.Load.rejected r.Traffic.Load.stuck
            r.Traffic.Load.violated)
        reports;
      let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
      let clean =
        Array.for_all
          (fun (r : Traffic.Load.report) ->
            r.Traffic.Load.violations = [] && r.Traffic.Load.conservation_ok)
          reports
      in
      Fmt.pr "total: committed %d, aborted %d, rejected %d, stuck %d, \
              violated %d — %s@."
        (sum (fun r -> r.Traffic.Load.committed))
        (sum (fun r -> r.Traffic.Load.aborted))
        (sum (fun r -> r.Traffic.Load.rejected))
        (sum (fun r -> r.Traffic.Load.stuck))
        (sum (fun r -> r.Traffic.Load.violated))
        (if clean then "all clean" else "VIOLATIONS");
      (match out with
      | None -> ()
      | Some _ ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf "{\"replications\":[";
          Array.iteri
            (fun i r ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf (Traffic.Load.to_json r))
            reports;
          Printf.bprintf buf "]%s}\n"
            (Fleet.timing_json ~events:(sum (fun r -> r.Traffic.Load.events))
               stats.Fleet.cost);
          write_sink out (Buffer.contents buf));
      exit (if clean then 0 else 1)
    end;
    let mon, sampler, recorder =
      watch_wanted ~monitor ~stop_on_violation ~series_out ~bundle_out
    in
    let causal = causal_wanted ~trace_out ~dag_out ~blame in
    let prof = prof_wanted ~profile ~profile_out ~collapsed_out in
    let report =
      try
        Traffic.Load.run ?causal ?prof ?monitor:mon ?sampler ?recorder ~plan
          ~workload ~seed ()
      with Invalid_argument e -> fail "%s" e
    in
    Fmt.pr "%a@." Traffic.Load.pp_summary report;
    print_monitor_verdict mon;
    (match sampler with
    | None -> ()
    | Some s -> write_sink series_out (Obsv.Sampler.to_jsonl s));
    (match (recorder, mon) with
    | Some rc, Some m ->
        let failed =
          report.Traffic.Load.violations <> []
          || (not report.Traffic.Load.conservation_ok)
          || report.Traffic.Load.stuck > 0
        in
        if failed then
          let repro =
            Printf.sprintf "xchain load --spec '%s' --seed %d%s"
              (Traffic.Workload.to_string workload)
              seed
              (if Faults.Fault_plan.is_none plan then ""
               else
                 Printf.sprintf " --plan '%s'"
                   (Faults.Fault_plan.to_string plan))
          in
          write_sink bundle_out
            (Obsv.Monitor.bundle_json m
               ~stuck_at:report.Traffic.Load.makespan
               ~stuck_detail:"unsettled payments when the run stopped" ~repro
               ~ring:(Runner.ring_json rc)
               ~metrics:(Obsv.Metrics.to_json Obsv.Metrics.default))
    | _ -> ());
    if blame then
      Option.iter
        (fun agg -> Fmt.pr "%a@." Obsv.Blame.pp_agg agg)
        report.Traffic.Load.blame;
    Option.iter
      (fun c ->
        let payments =
          List.map
            (fun (k, r) ->
              ( "pay#" ^ string_of_int k,
                k,
                Obsv.Causal.time_of c r.Obsv.Blame.root,
                Obsv.Causal.time_of c r.Obsv.Blame.sink,
                "committed" ))
            report.Traffic.Load.blame_reports
        in
        dump_causal (Some c) ~trace_out ~dag_out ~payments)
      causal;
    dump_prof ~table:profile prof ~profile_out ~collapsed_out;
    write_sink out (Traffic.Load.to_json report ^ "\n");
    dump_telemetry ~metrics_out ~spans_out;
    if report.Traffic.Load.violations = [] && report.Traffic.Load.conservation_ok
    then 0
    else 1
  in
  let spec =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"WORKLOAD"
             ~doc:"Workload as the one-line key=value grammar (exactly what a \
                   report embeds). Its keys override the base payments=100; \
                   the individual flags below are applied after it, each \
                   overriding its own key.")
  in
  let flags =
    workload_flags
      [
        workload_flag "payments" ~doc:"Concurrent payment instances (default 100).";
        workload_flag ~names:[ "n" ] "hops" ~doc:"Escrows per payment.";
        workload_flag "value" ~doc:"What Bob is owed.";
        workload_flag "commission" ~doc:"Per-connector commission.";
        workload_flag "arrival" ~docv:"PROC"
          ~doc:"Arrival process: poisson:GAP | closed:CLIENTS:THINK | \
                burst:SIZE:EVERY | ramp:HI:LO.";
        workload_flag "mix" ~docv:"MIX"
          ~doc:"Weighted protocol mix, e.g. 'sync:2,weak:1,htlc:1'. \
                Protocols: sync naive htlc weak committee atomic.";
        workload_flag "policy" ~docv:"POLICY"
          ~doc:"Admission policy: reserve (scheduler holds each leg's \
                funds) or optimistic (deposits race; funding-checked \
                protocols only).";
        workload_flag "cap" ~doc:"Max payments in flight (0 = unlimited).";
        workload_flag "liquidity"
          ~doc:"Payer funding in multiples of one payment's leg amount \
                (0 = ample: one unit per payment).";
        workload_flag "topology" ~docv:"SPEC"
          ~doc:
            (topology_doc
               "Payments are routed source-to-sink over the graph's per-edge \
                liquidity instead of the fixed --hops chain (requires \
                --policy reserve).");
        workload_flag "route" ~docv:"STRATEGY"
          ~doc:"Path-selection strategy over --topology: shortest \
                (cheapest-first greedy) or round-robin (rotating fair \
                shares).";
        workload_flag "splits" ~docv:"N"
          ~doc:"Max edge-disjoint paths a payment may split across \
                (requires --topology).";
        workload_flag "patience" ~doc:"Admission-queue patience, ticks.";
        workload_flag "stuck-after"
          ~doc:"Stuck deadline after admission, ticks (0 = derived from \
                the mix's protocol horizons).";
        workload_flag "drift" ~doc:"Clock drift bound, ppm.";
        workload_flag "gst"
          ~doc:"Partial synchrony with this GST (default: synchronous).";
      ]
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Run seed.") in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan over host pids 0..block-1, applied to every \
                   payment (see docs/fault_injection.md). Default: none.")
  in
  let plan_file =
    Arg.(value & opt (some string) None
         & info [ "plan-file" ] ~docv:"FILE"
             ~doc:"Read the fault plan from $(docv) (overrides --plan).")
  in
  let replications =
    Arg.(value & opt int 1
         & info [ "replications" ] ~docv:"N"
             ~doc:"Run the workload $(docv) times with seeds seed, seed+1, \
                   …, sharded over -j fleet domains, and report every \
                   replication plus the aggregate. Incompatible with the \
                   per-run telemetry sinks.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON report to $(docv) ('-' for stdout). \
                   Bit-identical across runs with equal inputs, except the \
                   trailing timing block (the host cost of the run).")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Run thousands of concurrent payments in one engine over shared \
             escrow liquidity, classify every outcome, check the safety \
             subset, and report throughput and latency percentiles")
    Term.(
      const run $ spec $ flags $ seed $ plan $ plan_file $ replications
      $ jobs_arg $ out $ metrics_out_arg
      $ spans_out_arg $ trace_out_arg $ dag_out_arg $ blame_arg $ profile_flag
      $ profile_out_arg $ collapsed_out_arg $ monitor_flag
      $ stop_on_violation_flag $ series_out_arg $ bundle_out_arg)

(* ------------------------------ committee ------------------------------ *)

let committee_cmd =
  let run committees batches pipeline payments hops patience gst seed j out
      metrics_out =
    let fail fmt =
      Fmt.kstr
        (fun s ->
          Fmt.epr "xchain committee: %s@." s;
          exit 2)
        fmt
    in
    let batches =
      List.map
        (fun s ->
          match int_of_string_opt (String.trim s) with
          | Some b when b >= 1 -> b
          | _ -> fail "bad --batches entry %S" s)
        (String.split_on_char ',' batches)
    in
    (* each cell is one spec line plus the run-shape flags as keys, folded
       by the workload parser; cells in (committee, batch) order: batch is
       the inner axis so the unbatched baseline sits next to its batched
       counterpart *)
    let keys =
      [
        ("--payments", string_of_int payments);
        ("--hops", string_of_int hops);
        ("--patience", string_of_int patience);
        ("--gst", Option.fold ~none:"none" ~some:string_of_int gst);
      ]
    in
    let workload_of shape batch =
      let committee =
        (* family:size:f[:faulty] — batch and pipeline come from the sweep *)
        match String.split_on_char ':' shape with
        | fam :: size :: f :: (([] | [ _ ]) as faulty)
          when not (String.contains shape ' ') ->
            Printf.sprintf "%s:%s:%s:%d:%d:%s" fam size f batch pipeline
              (match faulty with [ x ] -> x | _ -> "0")
        | _ -> fail "bad committee %S (want family:size:f[:faulty])" shape
      in
      let base =
        Printf.sprintf "mix=shared arrival=burst:%d:1 drift=0 committee=%s"
          payments committee
      in
      match Traffic.Workload.of_command_line ~base keys with
      | Ok w -> w
      | Error e -> fail "cell %s batch %d: %s" shape batch e
    in
    let workloads =
      Array.of_list
        (List.concat_map
           (fun shape -> List.map (workload_of shape) batches)
           (String.split_on_char ',' committees))
    in
    (* the cell's committee, as parsed from its spec line *)
    let cell i = Option.get workloads.(i).Traffic.Workload.committee in
    let domains = resolve_domains ~cmd:"committee" j in
    let outcomes, stats =
      Fleet.run ~domains
        ?on_progress:(tty_progress "committee sweep")
        ~jobs:(Array.length workloads)
        (fun i -> Traffic.Load.run ~workload:workloads.(i) ~seed ())
    in
    let reports =
      Array.mapi
        (fun i -> function
          | Error (fl : Fleet.failure) ->
              fail "cell committee=%s raised: %s"
                (Traffic.Workload.committee_to_string (cell i))
                fl.Fleet.message
          | Ok r -> r)
        outcomes
    in
    Fmt.pr
      "committee sweep: %d payments x %d hops, pipeline %d, seed %d, %d \
       cells@."
      payments hops pipeline seed (Array.length workloads);
    (* all payments arrive in one burst, so the decide span is exactly
       the slowest payment's latency — the makespan is padded out to the
       patience horizon and would wash batching out of a rate *)
    let decided_cpm (r : Traffic.Load.report) =
      if r.Traffic.Load.latency_max = 0 then 0
      else r.Traffic.Load.committed * 1_000_000 / r.Traffic.Load.latency_max
    in
    Fmt.pr "%-10s %5s %3s %6s %6s  %9s %6s %6s %6s %11s %8s@." "family" "size"
      "f" "faulty" "batch" "committed" "certs" "maxbat" "rounds" "decided/Mt"
      "cert-lat";
    let clean = ref true in
    Array.iteri
      (fun i (r : Traffic.Load.report) ->
        let { Traffic.Workload.c_family; c_size; c_f; c_faulty; c_batch; _ } =
          cell i
        in
        (* a shared mix always reports its committee *)
        let cs = Option.get r.Traffic.Load.committee_stats in
        if
          r.Traffic.Load.violations <> []
          || (not r.Traffic.Load.conservation_ok)
          || r.Traffic.Load.committed <> payments
        then clean := false;
        Fmt.pr "%-10s %5d %3d %6d %6d  %9d %6d %6d %6d %11d %8d@." c_family
          c_size c_f c_faulty c_batch r.Traffic.Load.committed
          cs.Traffic.Load.certs cs.Traffic.Load.max_batch
          cs.Traffic.Load.rounds (decided_cpm r)
          (if cs.Traffic.Load.certs = 0 then 0
           else cs.Traffic.Load.cert_lat_sum / cs.Traffic.Load.certs))
      reports;
    Fmt.pr "%s@." (if !clean then "all cells clean" else "CELLS FAILED");
    (match out with
    | None -> ()
    | Some _ ->
        let buf = Buffer.create 4096 in
        Printf.bprintf buf
          "{\"payments\":%d,\"hops\":%d,\"pipeline\":%d,\"seed\":%d,\"sweep\":["
          payments hops pipeline seed;
        Array.iteri
          (fun i (r : Traffic.Load.report) ->
            let { Traffic.Workload.c_family; c_size; c_f; c_faulty; c_batch; _ } =
              cell i
            in
            let cs = Option.get r.Traffic.Load.committee_stats in
            if i > 0 then Buffer.add_char buf ',';
            Printf.bprintf buf
              "{\"family\":\"%s\",\"size\":%d,\"f\":%d,\"faulty\":%d,\"batch\":%d,\"status\":\"%s\",\"committed\":%d,\"decided_cpm\":%d,\"messages\":%d,\"latency\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"max\":%d},\"committee\":{\"certs\":%d,\"verdicts\":%d,\"max_batch\":%d,\"rounds\":%d,\"cert_lat_sum\":%d,\"cert_lat_max\":%d}}"
              c_family c_size c_f c_faulty c_batch r.Traffic.Load.status
              r.Traffic.Load.committed (decided_cpm r)
              r.Traffic.Load.messages r.Traffic.Load.latency_p50
              r.Traffic.Load.latency_p95 r.Traffic.Load.latency_p99
              r.Traffic.Load.latency_max cs.Traffic.Load.certs
              cs.Traffic.Load.verdicts cs.Traffic.Load.max_batch
              cs.Traffic.Load.rounds cs.Traffic.Load.cert_lat_sum
              cs.Traffic.Load.cert_lat_max)
          reports;
        let events =
          Array.fold_left
            (fun acc (r : Traffic.Load.report) -> acc + r.Traffic.Load.events)
            0 reports
        in
        Printf.bprintf buf "]%s}\n" (Fleet.timing_json ~events stats.Fleet.cost);
        write_sink out (Buffer.contents buf));
    write_sink metrics_out (Obsv.Prometheus.render Obsv.Metrics.default);
    if !clean then 0 else 1
  in
  let committees =
    Arg.(
      value
      & opt string "majority:4:1,majority:16:5,majority:64:21"
      & info [ "committees" ] ~docv:"LIST"
          ~doc:
            "Comma-separated committee shapes, each family:size:f[:faulty] \
             (family: majority | weighted | grid; grid sizes must be \
             perfect squares; faulty replicas are crash-silent, never the \
             sequencer).")
  in
  let batches =
    Arg.(
      value & opt string "1,32"
      & info [ "batches" ] ~docv:"LIST"
          ~doc:
            "Comma-separated certificate batch caps; include 1 for the \
             unbatched baseline.")
  in
  let pipeline =
    Arg.(
      value & opt int 4
      & info [ "pipeline" ] ~docv:"N"
          ~doc:"Max concurrently undecided slots (>= 1).")
  in
  let payments =
    Arg.(
      value & opt (int_in 1) 128
      & info [ "payments" ]
          ~doc:
            "Payments per cell, all arriving in one burst so batches can \
             fill.")
  in
  let hops = Arg.(value & opt int 2 & info [ "n"; "hops" ] ~doc:"Escrows per payment.") in
  let patience =
    Arg.(
      value & opt int 100_000
      & info [ "patience" ]
          ~doc:
            "Admission-queue patience, ticks; generous because the burst \
             queues every payment at once.")
  in
  let gst =
    Arg.(
      value
      & opt (some int) None
      & info [ "gst" ]
          ~doc:"Partial synchrony with this GST (default: synchronous).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Run seed (same for every cell).") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the sweep as JSON to $(docv) ('-' for stdout). \
             Bit-identical across runs with equal inputs for any -j, except \
             the trailing timing block.")
  in
  Cmd.v
    (Cmd.info "committee"
       ~doc:
         "Sweep shared notary committees (size x quorum family x batch cap) \
          under a burst of payments and report certificate batching, \
          consensus rounds and decided-payment throughput")
    Term.(
      const run $ committees $ batches $ pipeline $ payments $ hops $ patience
      $ gst $ seed $ jobs_arg $ out $ metrics_out_arg)

(* -------------------------------- route -------------------------------- *)

let route_cmd =
  let run spec value splits strategy rebalance json out metrics_out =
    let module RT = Routing.Topology in
    let module RR = Routing.Router in
    let topo =
      match RT.of_string spec with
      | Ok t -> t
      | Error e ->
          Fmt.epr "xchain route: bad topology: %s@." e;
          exit 2
    in
    let strat =
      match RR.strategy_of_string strategy with
      | Ok s -> s
      | Error e ->
          Fmt.epr "xchain route: bad --strategy: %s@." e;
          exit 2
    in
    if value < 1 then begin
      Fmt.epr "xchain route: --value must be positive@.";
      exit 2
    end;
    if splits < 1 then begin
      Fmt.epr "xchain route: --splits must be positive@.";
      exit 2
    end;
    let avail e = RT.capacity topo.RT.edges.(e) in
    let flow = RR.max_flow topo () in
    let flow_str =
      if flow >= RT.unbounded then "unbounded" else string_of_int flow
    in
    let candidates = RR.paths topo ~max:splits () in
    let router = RR.create ~strategy:strat topo in
    let routed = RR.route router ~avail ~value ~max_splits:splits in
    let reb = Routing.Rebalance.plan topo in
    if json then begin
      let b = Buffer.create 1024 in
      let str s =
        Buffer.add_string b ("\"" ^ Obsv.Metrics.json_escape s ^ "\"")
      in
      Buffer.add_string b "{\"topology\":";
      str (RT.to_string topo);
      Printf.bprintf b ",\"nodes\":%d,\"edges\":%d,\"max_flow\":"
        topo.RT.nodes
        (Array.length topo.RT.edges);
      if flow >= RT.unbounded then str "unbounded"
      else Buffer.add_string b (string_of_int flow);
      Buffer.add_string b ",\"liquidity_histogram\":{";
      List.iteri
        (fun i (bucket, n) ->
          if i > 0 then Buffer.add_char b ',';
          str bucket;
          Printf.bprintf b ":%d" n)
        (RT.liquidity_histogram topo);
      Printf.bprintf b "},\"value\":%d,\"strategy\":" value;
      str (RR.strategy_name strat);
      Buffer.add_string b ",\"route\":";
      (match routed with
      | Ok ss ->
          Buffer.add_char b '[';
          List.iteri
            (fun i (s : RR.split) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b "{\"nodes\":[";
              List.iteri
                (fun j n ->
                  if j > 0 then Buffer.add_char b ',';
                  Buffer.add_string b (string_of_int n))
                (RR.path_nodes topo s.RR.path);
              Printf.bprintf b "],\"value\":%d}" s.RR.value)
            ss;
          Buffer.add_char b ']'
      | Error e ->
          Buffer.add_string b "{\"error\":";
          str e;
          Buffer.add_char b '}');
      Printf.bprintf b ",\"rebalance\":{\"moves\":%d,\"volume\":%d}}"
        (List.length reb.Routing.Rebalance.moves)
        reb.Routing.Rebalance.volume;
      Buffer.add_char b '\n';
      write_sink (Some (Option.value out ~default:"-")) (Buffer.contents b)
    end
    else begin
      Fmt.pr "topology: %s@." (RT.to_string topo);
      Fmt.pr "nodes %d, edges %d, source %d, sink %d@." topo.RT.nodes
        (Array.length topo.RT.edges) (RT.source topo) (RT.sink topo);
      Fmt.pr "max-flow bound: %s@." flow_str;
      Fmt.pr "liquidity histogram:@.";
      List.iter
        (fun (bucket, n) -> Fmt.pr "  %-10s %d edge(s)@." bucket n)
        (RT.liquidity_histogram topo);
      Fmt.pr "candidate paths (cost order, max %d):@." splits;
      List.iter
        (fun p ->
          let cap = RR.path_capacity topo ~avail p in
          Fmt.pr "  %s  capacity %s@."
            (String.concat ">"
               (List.map string_of_int (RR.path_nodes topo p)))
            (if cap >= RT.unbounded then "unbounded" else string_of_int cap))
        candidates;
      (match routed with
      | Ok ss ->
          Fmt.pr "route %d via %s:@." value (RR.strategy_name strat);
          List.iter
            (fun (s : RR.split) ->
              Fmt.pr "  %s  carries %d@."
                (String.concat ">"
                   (List.map string_of_int (RR.path_nodes topo s.RR.path)))
                s.RR.value)
            ss
      | Error e -> Fmt.pr "route %d: %s@." value e);
      if rebalance then Fmt.pr "%a@." Routing.Rebalance.pp reb;
      match out with
      | None -> ()
      | Some _ -> write_sink out (RT.to_string topo ^ "\n")
    end;
    let reg = Obsv.Metrics.default in
    Obsv.Metrics.set
      (Obsv.Metrics.gauge reg
         ~help:"Volume a rebalancing pass would move on this topology"
         "xchain_route_rebalance_volume")
      reb.Routing.Rebalance.volume;
    dump_telemetry ~metrics_out ~spans_out:None;
    match routed with Ok _ -> 0 | Error _ -> 1
  in
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TOPOLOGY"
             ~doc:"Topology spec: linear:H | hub:K | er:N:E:SEED | \
                   sf:N:D:SEED | graph:N;U>V:LIQ:COMM,... (see \
                   docs/routing.md).")
  in
  let value =
    Arg.(value & opt int 1000
         & info [ "value" ] ~doc:"Payment value to route.")
  in
  let splits =
    Arg.(value & opt int 4
         & info [ "splits" ] ~docv:"N"
             ~doc:"Max edge-disjoint paths to split across.")
  in
  let strategy =
    Arg.(value & opt string "shortest"
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:"shortest or round-robin.")
  in
  let rebalance =
    Arg.(value & flag
         & info [ "rebalance" ]
             ~doc:"Print the liquidity-rebalancing plan (batched transfers \
                   evening out each node's bounded out-edges).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the analysis as JSON instead of text.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON analysis (with --json) or the canonical \
                   topology line to $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Analyse a payment graph: candidate source-to-sink paths, \
             max-flow bound, liquidity histogram, the split a router would \
             choose for a value, and an optional rebalancing plan")
    Term.(const run $ spec $ value $ splits $ strategy $ rebalance $ json
          $ out $ metrics_out_arg)

(* ------------------------------- profile ------------------------------- *)

let profile_cmd =
  let run mode flags protocol runs seed top out profile_out collapsed_out =
    let prof = Obsv.Prof.create ~now_ns:Fleet.now_ns () in
    (* chaos and explore take their hop count and topology from the same
       flags *)
    let workload = read_workload ~cmd:"profile" ~base:"payments=1000" flags in
    let hops () =
      hops_of_topology ~cmd:"profile" ~value:1000
        ~hops:workload.Traffic.Workload.hops workload.Traffic.Workload.topology
    in
    let code =
      match mode with
      | "load" ->
          (* causal tracing on: dispatch sites then attribute to
             individual payments (pay#K frames) instead of one "run"
             bucket, cross-linking profiles with xchain trace ids *)
          let causal = Obsv.Causal.create () in
          let report =
            try Traffic.Load.run ~causal ~prof ~workload ~seed ()
            with Invalid_argument e ->
              Fmt.epr "xchain profile: %s@." e;
              exit 2
          in
          Fmt.pr "%a@." Traffic.Load.pp_summary report;
          write_sink out (Traffic.Load.to_json report ^ "\n");
          if
            report.Traffic.Load.violations = []
            && report.Traffic.Load.conservation_ok
          then 0
          else 1
      | "chaos" ->
          let hops = hops () in
          let s =
            Xchain.Chaos.soak ~hops ~protocol ~runs ~seed ~prof
              ?on_progress:(tty_progress "profile chaos") ()
          in
          Fmt.pr "%a@." Xchain.Chaos.pp_summary s;
          write_sink out (Xchain.Chaos.summary_to_json ~hops ~protocol ~seed s);
          if s.Xchain.Chaos.violations = [] then 0 else 1
      | "explore" -> (
          let protocol = Proto.runner protocol in
          let hops = hops () in
          match
            Xchain.Explore.sweep ~hops ~prof
              ?on_progress:(tty_progress "profile explore") ~protocol ()
          with
          | exception Invalid_argument e ->
              Fmt.epr "xchain profile: %s@." e;
              exit 2
          | r ->
              Fmt.pr "explore: %d hops, %d corners — %d violations@." hops
                r.Xchain.Explore.corners r.Xchain.Explore.violations;
              write_sink out (Xchain.Explore.result_to_json ~hops ~protocol r);
              if r.Xchain.Explore.violations = 0 then 0 else 1)
      | other ->
          Fmt.epr "xchain profile: unknown workload %S (load|chaos|explore)@."
            other;
          exit 2
    in
    dump_prof ~top ~table:true (Some prof) ~profile_out ~collapsed_out;
    code
  in
  let mode =
    Arg.(
      value & pos 0 string "load"
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "What to profile: load (default — a multiplexed load run with \
             per-payment attribution), chaos (a single-domain soak), or \
             explore (a corner sweep).")
  in
  let flags =
    workload_flags
      [
        workload_flag "payments"
          ~doc:"Load: concurrent payment instances (default 1000).";
        workload_flag ~names:[ "n" ] "hops" ~doc:"Escrows.";
        workload_flag "arrival" ~docv:"PROC" ~doc:"Load: arrival process.";
        workload_flag "mix" ~docv:"MIX" ~doc:"Load: weighted protocol mix.";
        workload_flag "topology" ~docv:"SPEC"
          ~doc:
            (topology_doc
               "Load: payments route over the graph's per-edge liquidity; \
                chaos/explore: the hop count becomes the cheapest \
                source-to-sink path's length (overrides --hops).");
        workload_flag "splits" ~docv:"N"
          ~doc:"Load: max edge-disjoint paths a payment may split across \
                (requires --topology).";
      ]
  in
  let protocol = protocol_arg ~doc:"Chaos/explore: protocol under test." () in
  let runs =
    Arg.(value & opt (int_in 0) 200
         & info [ "runs" ] ~doc:"Chaos: number of random plans to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Run seed.") in
  let top =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-site table.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the wrapped workload's own JSON report to $(docv) \
                   ('-' for stdout), exactly as the underlying command \
                   would.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a load, chaos or explore workload with the dispatch profiler \
          armed: wall time and allocation attributed per payment x process \
          x event kind, a top-N hot-site table, and JSON / collapsed-stack \
          (speedscope) exports. Deterministic modulo the strippable \
          timing/prof_timing blocks")
    Term.(
      const run $ mode $ flags $ protocol $ runs $ seed $ top $ out
      $ profile_out_arg $ collapsed_out_arg)

(* -------------------------------- dot ---------------------------------- *)

let dot_cmd =
  let run hops who =
    if who = `Chloe && hops < 2 then begin
      Fmt.epr "xchain dot: chloe needs -n >= 2 (a connector sits between two \
               escrows)@.";
      exit 2
    end;
    let topo = Topology.create ~hops in
    let tmpl =
      Sync_protocol.template (Params.derive (Params.default_input ~hops))
    in
    let pid =
      match who with
      | `Alice -> Topology.alice topo
      | `Bob -> Topology.bob topo
      | `Escrow -> Topology.escrow topo 0
      | `Chloe -> Topology.customer topo 1
    in
    print_string (Anta.Automaton.to_dot tmpl.(pid));
    0
  in
  let hops = hops_arg 3 in
  let who =
    Arg.(value
         & pos 0
             (enum
                [ ("alice", `Alice); ("chloe", `Chloe); ("bob", `Bob);
                  ("escrow", `Escrow) ])
             `Escrow
         & info [] ~docv:"WHO" ~doc:"alice | chloe | bob | escrow.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Figure 2 automaton as Graphviz")
    Term.(const run $ hops $ who)

let () =
  let info =
    Cmd.info "xchain" ~version:"1.0.0"
      ~doc:"Cross-chain payment with success guarantees (SPAA 2020) — reproduction"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ pay_cmd; experiment_cmd; params_cmd; dot_cmd; audit_cmd; deal_cmd;
            chaos_cmd; hunt_cmd; explore_cmd; trace_cmd; load_cmd;
            committee_cmd; route_cmd;
            profile_cmd;
            metrics_cmd ]))

(* Reproduction harness.

   Running this executable regenerates every table of the reproduction
   (E1..E14, one per paper claim — the paper has no numbered evaluation
   tables, see DESIGN.md §3), then writes the functional-gate artifacts
   BENCH_metrics/load/routing/blame/fleet.json that scripts/check_*.py
   validate. Speed and memory are measured by bench/perf, and the shared
   committee sweep is `xchain committee`.

   Scale: quick samples by default; set XCHAIN_BENCH_FULL=1 for the full
   (400 runs/config) tables recorded in EXPERIMENTS.md. *)

let scale =
  match Sys.getenv_opt "XCHAIN_BENCH_FULL" with
  | Some ("1" | "true" | "yes") -> Xchain.Experiments.Full
  | _ -> Xchain.Experiments.Quick

(* ----------------------- reproduction tables -------------------------- *)

(* Runs every experiment, rendering its table and isolating its telemetry:
   the registry is reset before each experiment and snapshotted (as JSON)
   after it, so the BENCH_metrics.json written below attributes counters
   to the experiment that produced them. *)
let print_tables () =
  Fmt.pr "##### Reproduction tables (%s scale) #####@.@."
    (match scale with Xchain.Experiments.Quick -> "quick" | Full -> "full");
  List.map
    (fun name ->
      Obsv.Metrics.reset Obsv.Metrics.default;
      let table =
        match Xchain.Experiments.by_name name with
        | Some f -> f scale
        | None -> Fmt.invalid_arg "unknown experiment %s" name
      in
      Fmt.pr "%a@." Xchain.Table.render table;
      (name, Obsv.Metrics.to_json Obsv.Metrics.default))
    Xchain.Experiments.names

let metrics_json_file = "BENCH_metrics.json"

let write_metrics_json per_experiment =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"scale\":";
  Buffer.add_string buf
    (match scale with
    | Xchain.Experiments.Quick -> "\"quick\""
    | Full -> "\"full\"");
  Buffer.add_string buf ",\"experiments\":{";
  List.iteri
    (fun i (name, json) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf name;
      Buffer.add_string buf "\":";
      Buffer.add_string buf json)
    per_experiment;
  Buffer.add_string buf "}}\n";
  let oc = open_out metrics_json_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "telemetry snapshots written to %s@." metrics_json_file

(* --------------------------- load workloads ---------------------------- *)

(* Canonical load workloads: each is one deterministic Load.run whose full
   report lands in BENCH_load.json. Quick scale trims the payment counts;
   full scale is the 10k-payment run recorded in EXPERIMENTS.md. *)
let load_workloads =
  let n = match scale with Xchain.Experiments.Quick -> 500 | Full -> 10_000 in
  let w s =
    match Traffic.Workload.of_string s with
    | Ok w -> w
    | Error e -> failwith e
  in
  [
    ( "mixed_open_loop",
      w
        (Printf.sprintf
           "payments=%d hops=2 value=1000 commission=10 arrival=poisson:4 \
            mix=sync:2,weak:2,htlc:1,atomic:1,committee:1 policy=reserve \
            cap=0 liquidity=0 patience=2000 stuck=0 drift=10000 gst=none"
           n) );
    ( "closed_loop_contention",
      w
        (Printf.sprintf
           "payments=%d hops=2 value=1000 commission=10 arrival=closed:16:5 \
            mix=weak policy=reserve cap=0 liquidity=%d patience=500 stuck=0 \
            drift=10000 gst=none"
           (n / 2) (n / 8)) );
    (* a healed escrow crash stays inside the paper's model (eventual
       delivery), so zero violations is asserted; silent drops would not —
       the weak protocol genuinely loses CS2 without reliable delivery,
       and both this classifier and chaos report that truthfully *)
    ( "crash_heal",
      w
        (Printf.sprintf
           "payments=%d hops=2 value=1000 commission=10 arrival=poisson:40 \
            mix=weak:1,atomic:1 policy=reserve cap=0 liquidity=0 \
            patience=2000 stuck=0 drift=10000 gst=none"
           (n / 5)) );
  ]

let load_plan_for = function
  | "crash_heal" -> (
      match Faults.Fault_plan.of_string "crash 3@1500+2500" with
      | Ok p -> Some p
      | Error e -> failwith e)
  | _ -> None

let load_json_file = "BENCH_load.json"

let write_load_json () =
  Fmt.pr "@.##### Load workloads (one run each, seed 1) #####@.@.";
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"scale\":";
  Buffer.add_string buf
    (match scale with
    | Xchain.Experiments.Quick -> "\"quick\""
    | Full -> "\"full\"");
  Buffer.add_string buf ",\"workloads\":{";
  List.iteri
    (fun i (name, workload) ->
      if i > 0 then Buffer.add_char buf ',';
      let r =
        match load_plan_for name with
        | Some plan -> Traffic.Load.run ~plan ~workload ~seed:1 ()
        | None -> Traffic.Load.run ~workload ~seed:1 ()
      in
      Fmt.pr "%s:@.%a@.@." name Traffic.Load.pp_summary r;
      if r.Traffic.Load.violated > 0 || not r.Traffic.Load.conservation_ok
      then Fmt.failwith "load workload %s violated safety" name;
      Buffer.add_char buf '"';
      Buffer.add_string buf name;
      Buffer.add_string buf "\":";
      Buffer.add_string buf (Traffic.Load.to_json r))
    load_workloads;
  Buffer.add_string buf "}}\n";
  let oc = open_out load_json_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "load reports written to %s@." load_json_file

(* ---------------------------- routing graphs --------------------------- *)

(* One run per topology family (throughput parity with the linear chain)
   plus the constrained-liquidity diamond pair that motivates splitting: a
   fat path that carries exactly two payments and three thin paths only a
   splitting router can use. diamond_single strands >=30% of the offered
   value; diamond_multi must commit strictly more (scripts/check_routing.py
   gates both, and the harness refuses to write a JSON that fails). *)
let routing_json_file = "BENCH_routing.json"

let routing_workloads =
  let n = match scale with Xchain.Experiments.Quick -> 200 | Full -> 2_000 in
  let w s =
    match Traffic.Workload.of_string s with
    | Ok w -> w
    | Error e -> failwith e
  in
  let family name topo splits =
    ( name,
      w
        (Printf.sprintf
           "payments=%d hops=2 value=1000 commission=10 arrival=poisson:4 \
            mix=sync:1,weak:1 policy=reserve cap=0 liquidity=0 \
            patience=2000 stuck=0 drift=10000 gst=none topology=%s \
            route=shortest splits=%d"
           n topo splits) )
  in
  let diamond =
    "graph:6;0>1:2100:0,0>2:700:0,0>3:700:0,0>4:700:0,1>5:2100:0,2>5:700:0,3>5:700:0,4>5:700:0"
  in
  let constrained name splits =
    ( name,
      w
        (Printf.sprintf
           "payments=4 hops=2 value=1000 commission=10 arrival=burst:4:1 \
            mix=sync:1 policy=reserve cap=0 liquidity=0 patience=9000 \
            stuck=0 drift=10000 gst=none topology=%s route=shortest \
            splits=%d"
           diamond splits) )
  in
  [
    family "linear_chain" "linear:3" 1;
    family "hub_spoke" "hub:4" 2;
    family "er_mesh" "er:6:4:9" 3;
    family "scale_free" "sf:6:2:5" 3;
    constrained "diamond_single" 1;
    constrained "diamond_multi" 4;
  ]

let write_routing_json () =
  Fmt.pr "@.##### Routing workloads (one run each, seed 1) #####@.@.";
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"scale\":";
  Buffer.add_string buf
    (match scale with
    | Xchain.Experiments.Quick -> "\"quick\""
    | Full -> "\"full\"");
  Buffer.add_string buf ",\"workloads\":{";
  let reports =
    List.mapi
      (fun i (name, workload) ->
        if i > 0 then Buffer.add_char buf ',';
        let r = Traffic.Load.run ~workload ~seed:1 () in
        Fmt.pr "%s:@.%a@.@." name Traffic.Load.pp_summary r;
        if r.Traffic.Load.violated > 0 || not r.Traffic.Load.conservation_ok
        then Fmt.failwith "routing workload %s violated safety" name;
        Buffer.add_char buf '"';
        Buffer.add_string buf name;
        Buffer.add_string buf "\":";
        Buffer.add_string buf (Traffic.Load.to_json r);
        (name, r))
      routing_workloads
  in
  let committed_value name =
    match (List.assoc name reports).Traffic.Load.routing with
    | Some s -> s.Traffic.Load.committed_value
    | None -> Fmt.failwith "routing workload %s produced no routing stats" name
  in
  let single = committed_value "diamond_single"
  and multi = committed_value "diamond_multi" in
  if 100 * (4000 - single) < 30 * 4000 then
    Fmt.failwith
      "diamond_single strands only %d of 4000 — the constrained pair no \
       longer demonstrates stranded value"
      (4000 - single);
  if multi <= single then
    Fmt.failwith
      "multi-path routing (%d) must commit strictly more value than \
       single-path (%d)"
      multi single;
  Buffer.add_string buf "}}\n";
  let oc = open_out routing_json_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "routing reports written to %s@." routing_json_file

(* --------------------------- causal tracing ---------------------------- *)

(* One canonically-traced load run: its aggregate blame table, plus the
   tracing-off vs tracing-on wall-clock of the identical run, land in
   BENCH_blame.json. Tracing off must be in the noise (an untraced run
   subscribes no fold to its trace); tracing on reports its actual
   overhead ratio honestly. *)
let blame_json_file = "BENCH_blame.json"

let blame_workload =
  let n = match scale with Xchain.Experiments.Quick -> 200 | Full -> 2_000 in
  match
    Traffic.Workload.of_string
      (Printf.sprintf
         "payments=%d hops=2 value=1000 commission=10 arrival=poisson:10 \
          mix=sync:1,weak:1 policy=reserve cap=0 liquidity=0 patience=2000 \
          stuck=0 drift=10000 gst=none"
         n)
  with
  | Ok w -> w
  | Error e -> failwith e

let write_blame_json () =
  Fmt.pr "@.##### Causal tracing: blame + overhead (seed 1) #####@.@.";
  let reps = match scale with Xchain.Experiments.Quick -> 3 | Full -> 10 in
  let time_runs ~causal () =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      let c = if causal then Some (Obsv.Causal.create ()) else None in
      ignore (Traffic.Load.run ?causal:c ~workload:blame_workload ~seed:1 ())
    done;
    Sys.time () -. t0
  in
  let off_s = time_runs ~causal:false () in
  let on_s = time_runs ~causal:true () in
  let ratio = if off_s > 0. then on_s /. off_s else 1. in
  let c = Obsv.Causal.create () in
  let r = Traffic.Load.run ~causal:c ~workload:blame_workload ~seed:1 () in
  let agg =
    match r.Traffic.Load.blame with
    | Some a -> a
    | None -> failwith "traced load run produced no blame aggregate"
  in
  (* the exact-sum invariant, re-checked on the bench workload *)
  List.iter
    (fun (_, b) ->
      if not (Obsv.Blame.check b) then
        failwith "blame gaps do not sum to the commit latency")
    r.Traffic.Load.blame_reports;
  Fmt.pr "%a@." Obsv.Blame.pp_agg agg;
  Fmt.pr "overhead: off %.3fs, on %.3fs over %d runs — ratio %.2f@." off_s
    on_s reps ratio;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"scale\":";
  Buffer.add_string buf
    (match scale with
    | Xchain.Experiments.Quick -> "\"quick\""
    | Full -> "\"full\"");
  Buffer.add_string buf ",\"workload\":\"";
  Buffer.add_string buf
    (Obsv.Metrics.json_escape (Traffic.Workload.to_string blame_workload));
  Buffer.add_string buf "\",\"blame\":";
  Buffer.add_string buf (Obsv.Blame.agg_to_json agg);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"overhead\":{\"runs\":%d,\"off_s\":%.6f,\"on_s\":%.6f,\"ratio\":%.4f}}\n"
       reps off_s on_s ratio);
  let oc = open_out blame_json_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "blame report written to %s@." blame_json_file

(* ---------------------------- fleet scaling ---------------------------- *)

(* Speedup-vs-domain-count curves for the two embarrassingly parallel
   harnesses (chaos soak, corner sweep), with the determinism contract
   enforced as a guardrail: the stripped report at every domain count
   must equal the 1-domain bytes, or the bench aborts. The curve is only
   meaningful on multi-core hosts, so host_domains is recorded and
   scripts/check_fleet.py gates its speedup assertion on it. *)
let fleet_json_file = "BENCH_fleet.json"

(* Same normalization as scripts/strip_timing.py and the cram tests: the
   "timing" object is flat, so scanning to its closing brace is exact. *)
let strip_timing s =
  let marker = {|,"timing":{|} in
  let mlen = String.length marker in
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
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

let fleet_domain_counts = [ 1; 2; 4 ]

let fleet_workloads =
  let runs = match scale with Xchain.Experiments.Quick -> 120 | Full -> 600 in
  [
    ( "chaos_soak",
      runs,
      fun domains ->
        let s = Xchain.Chaos.soak ~hops:2 ~runs ~domains ~seed:1 () in
        ( strip_timing (Xchain.Chaos.summary_to_json ~seed:1 s),
          s.Xchain.Chaos.cost.Fleet.wall_ns ) );
    ( "corner_sweep",
      512,
      fun domains ->
        let protocol = Protocols.Runner.Sync_timebound in
        let r = Xchain.Explore.sweep ~hops:1 ~domains ~protocol () in
        ( strip_timing
            (Xchain.Explore.result_to_json ~hops:1 ~protocol r),
          r.Xchain.Explore.cost.Fleet.wall_ns ) );
  ]

let write_fleet_json () =
  Fmt.pr "@.##### Fleet scaling (speedup vs 1 domain) #####@.@.";
  let host = Fleet.recommended_domains () in
  Fmt.pr "host reports %d recommended domain(s)@." host;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"scale\":";
  Buffer.add_string buf
    (match scale with
    | Xchain.Experiments.Quick -> "\"quick\""
    | Full -> "\"full\"");
  Buffer.add_string buf (Printf.sprintf ",\"host_domains\":%d" host);
  Buffer.add_string buf ",\"workloads\":{";
  List.iteri
    (fun i (name, jobs, run) ->
      if i > 0 then Buffer.add_char buf ',';
      let curve = List.map (fun d -> (d, run d)) fleet_domain_counts in
      let _, (baseline_bytes, baseline_wall) = List.hd curve in
      List.iter
        (fun (d, (bytes, _)) ->
          if bytes <> baseline_bytes then
            Fmt.failwith
              "fleet workload %s: report at %d domains diverges from the \
               1-domain bytes"
              name d)
        curve;
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":{\"jobs\":%d,\"deterministic\":true,\"curve\":["
           name jobs);
      List.iteri
        (fun k (d, (_, wall)) ->
          if k > 0 then Buffer.add_char buf ',';
          let speedup = float_of_int baseline_wall /. float_of_int wall in
          Fmt.pr "%-16s -j %d: %8.3f ms  (speedup %.2fx)@." name d
            (float_of_int wall /. 1e6)
            speedup;
          Buffer.add_string buf
            (Printf.sprintf "{\"domains\":%d,\"wall_ns\":%d,\"speedup\":%.4f}" d
               wall speedup))
        curve;
      Buffer.add_string buf "]}")
    fleet_workloads;
  Buffer.add_string buf "}}\n";
  let oc = open_out fleet_json_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "fleet scaling written to %s@." fleet_json_file

let () =
  let per_experiment = print_tables () in
  write_metrics_json per_experiment;
  write_load_json ();
  write_routing_json ();
  write_blame_json ();
  write_fleet_json ();
  Fmt.pr "@.done.@."

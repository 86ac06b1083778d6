(* Benchmark / reproduction harness.

   Running this executable regenerates every table of the reproduction
   (E1..E12, one per paper claim — the paper has no numbered evaluation
   tables, see DESIGN.md §3), then times the substrate and the protocols
   with Bechamel micro-benchmarks (one Test per experiment workload plus
   the core primitives).

   Scale: quick samples by default; set XCHAIN_BENCH_FULL=1 for the full
   (400 runs/config) tables recorded in EXPERIMENTS.md. *)

open Bechamel
open Toolkit
open Protocols

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
  Obsv.Span.set_capture Obsv.Span.default false;
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
  let reports =
    List.mapi
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
        Buffer.add_string buf (Traffic.Load.to_json r);
        (name, r))
      load_workloads
  in
  Buffer.add_string buf "}}\n";
  let oc = open_out load_json_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "load reports written to %s@." load_json_file;
  reports

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
  Fmt.pr "routing reports written to %s@." routing_json_file;
  reports

(* --------------------------- causal tracing ---------------------------- *)

(* One canonically-traced load run: its aggregate blame table, plus the
   tracing-off vs tracing-on wall-clock of the identical run, land in
   BENCH_blame.json. Tracing off must be in the noise (the engine guards
   every causal block behind one option match); tracing on reports its
   actual overhead ratio honestly. *)
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
          s.Xchain.Chaos.wall_ns ) );
    ( "corner_sweep",
      512,
      fun domains ->
        let r =
          Xchain.Explore.sweep ~hops:1 ~domains ~protocol:Runner.Sync_timebound
            ()
        in
        ( strip_timing
            (Xchain.Explore.result_to_json ~hops:1
               ~protocol:Runner.Sync_timebound r),
          r.Xchain.Explore.wall_ns ) );
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

(* --------------------------- shared committees ------------------------- *)

(* Committee-size x batch-cap sweep over the shared notary committee:
   every payment in a cell arrives in one burst and is decided by one
   external batching committee, so certificate batching and consensus
   rounds are the whole story. The harness refuses to write a JSON where
   batching does not strictly beat the unbatched baseline at equal
   committee size, or where the largest committee fails to fill a >= 32
   verdict certificate (scripts/check_committee.py re-gates both in CI).
   Cells shard over the fleet; reports merge in cell order, so the JSON
   is byte-identical for any domain count (modulo the timing block). *)
let committee_json_file = "BENCH_committee.json"

let committee_sizes =
  match scale with
  | Xchain.Experiments.Quick -> [ 4; 16; 64 ]
  | Full -> [ 4; 16; 64; 100 ]

let committee_batches = [ 1; 32 ]

let committee_payments =
  match scale with Xchain.Experiments.Quick -> 64 | Full -> 256

let write_committee_json () =
  Fmt.pr "@.##### Shared committee sweep (size x batch, seed 1) #####@.@.";
  let cells =
    List.concat_map
      (fun n -> List.map (fun b -> (n, b)) committee_batches)
      committee_sizes
  in
  let workload_of (n, batch) =
    let spec =
      Printf.sprintf
        "payments=%d hops=2 value=1000 commission=10 arrival=burst:%d:1 \
         mix=shared policy=reserve cap=0 liquidity=0 patience=100000 \
         stuck=0 drift=0 gst=none committee=majority:%d:%d:%d:4"
        committee_payments committee_payments n ((n - 1) / 3) batch
    in
    match Traffic.Workload.of_string spec with
    | Ok w -> w
    | Error e -> failwith e
  in
  let cells_a = Array.of_list cells in
  let outcomes, _ =
    Fleet.run
      ~domains:(min (Fleet.recommended_domains ()) (Array.length cells_a))
      ~jobs:(Array.length cells_a)
      (fun i -> Traffic.Load.run ~workload:(workload_of cells_a.(i)) ~seed:1 ())
  in
  let reports =
    Array.mapi
      (fun i -> function
        | Error (f : Fleet.failure) ->
            let n, b = cells_a.(i) in
            Fmt.failwith "committee cell %dx%d raised: %s" n b f.Fleet.message
        | Ok r -> r)
      outcomes
  in
  (* one burst, so the decide span is the slowest payment's latency *)
  let decided_cpm (r : Traffic.Load.report) =
    if r.Traffic.Load.latency_max = 0 then 0
    else r.Traffic.Load.committed * 1_000_000 / r.Traffic.Load.latency_max
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"scale\":";
  Buffer.add_string buf
    (match scale with
    | Xchain.Experiments.Quick -> "\"quick\""
    | Full -> "\"full\"");
  Printf.bprintf buf ",\"payments\":%d,\"hops\":2,\"pipeline\":4,\"sweep\":["
    committee_payments;
  Array.iteri
    (fun i (r : Traffic.Load.report) ->
      let n, batch = cells_a.(i) in
      if
        r.Traffic.Load.violated > 0
        || (not r.Traffic.Load.conservation_ok)
        || r.Traffic.Load.committed <> committee_payments
      then
        Fmt.failwith "committee cell %dx%d: %d/%d committed, %d violations" n
          batch r.Traffic.Load.committed committee_payments
          r.Traffic.Load.violated;
      let cs =
        match r.Traffic.Load.committee_stats with
        | Some s -> s
        | None -> Fmt.failwith "committee cell %dx%d: no committee stats" n batch
      in
      Fmt.pr
        "majority %3d  batch %2d: %3d certs, max batch %2d, %3d rounds, \
         %6d decided/Mtick@."
        n batch cs.Traffic.Load.certs cs.Traffic.Load.max_batch
        cs.Traffic.Load.rounds (decided_cpm r);
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"family\":\"majority\",\"size\":%d,\"f\":%d,\"batch\":%d,\"committed\":%d,\"decided_cpm\":%d,\"messages\":%d,\"latency\":{\"p50\":%d,\"p95\":%d,\"max\":%d},\"certs\":%d,\"verdicts\":%d,\"max_batch\":%d,\"rounds\":%d,\"cert_lat_sum\":%d,\"cert_lat_max\":%d}"
        n ((n - 1) / 3) batch r.Traffic.Load.committed (decided_cpm r)
        r.Traffic.Load.messages r.Traffic.Load.latency_p50
        r.Traffic.Load.latency_p95 r.Traffic.Load.latency_max
        cs.Traffic.Load.certs cs.Traffic.Load.verdicts
        cs.Traffic.Load.max_batch cs.Traffic.Load.rounds
        cs.Traffic.Load.cert_lat_sum cs.Traffic.Load.cert_lat_max)
    reports;
  Buffer.add_string buf "]}\n";
  (* in-harness gates, mirrored by scripts/check_committee.py *)
  List.iter
    (fun n ->
      let cell b =
        let i = ref (-1) in
        Array.iteri (fun k (m, bb) -> if m = n && bb = b then i := k) cells_a;
        reports.(!i)
      in
      let unbatched = decided_cpm (cell 1)
      and batched = decided_cpm (cell 32) in
      if batched <= unbatched then
        Fmt.failwith
          "committee size %d: batched throughput %d must strictly beat \
           unbatched %d"
          n batched unbatched)
    committee_sizes;
  (let largest = List.fold_left max 0 committee_sizes in
   let i = ref (-1) in
   Array.iteri (fun k (m, b) -> if m = largest && b = 32 then i := k) cells_a;
   match reports.(!i).Traffic.Load.committee_stats with
   | Some cs when cs.Traffic.Load.max_batch >= 32 -> ()
   | Some cs ->
       Fmt.failwith
         "largest committee (%d) filled only %d-verdict certificates (want \
          >= 32)"
         largest cs.Traffic.Load.max_batch
   | None -> assert false);
  let oc = open_out committee_json_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "committee sweep written to %s@." committee_json_file

(* ------------------------ perf-trajectory ledger ----------------------- *)

(* Every bench run appends one JSON line to bench/history/trajectory.jsonl:
   events/sec per canonical load workload (nondeterministic, host wall
   clock) and minor-heap words per dispatched event on a profiled
   canonical run (deterministic), keyed by git sha, UTC date, host domain
   count and scale. scripts/check_perf.py compares the newest entry
   against the trailing window of same-scale entries and fails CI on a
   >20% events/sec or >10% allocation-per-event regression. *)
let history_file = "bench/history/trajectory.jsonl"

let write_history load_reports =
  let sha =
    match Sys.getenv_opt "GITHUB_SHA" with
    | Some s when s <> "" -> s
    | _ -> (
        try
          let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
          let line = try input_line ic with End_of_file -> "" in
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 when line <> "" -> line
          | _ -> "unknown"
        with _ -> "unknown")
  in
  let date =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  (* allocation per dispatched event on the canonical traced workload,
     via the dispatch profiler: deterministic, so the 10% gate is tight *)
  let prof = Obsv.Prof.create () in
  ignore (Traffic.Load.run ~prof ~workload:blame_workload ~seed:1 ());
  let _, _, alloc = Obsv.Prof.site_totals prof in
  let prof_events = max 1 (Obsv.Prof.events prof) in
  let alloc_per_event = float_of_int alloc /. float_of_int prof_events in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"sha\":\"%s\",\"date\":\"%s\",\"scale\":%s,\"host_domains\":%d,\
        \"events_per_sec\":{"
       (Obsv.Metrics.json_escape sha)
       date
       (match scale with
       | Xchain.Experiments.Quick -> "\"quick\""
       | Full -> "\"full\"")
       (Fleet.recommended_domains ()));
  List.iteri
    (fun i (name, (r : Traffic.Load.report)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%.1f" name
           (float_of_int r.Traffic.Load.events
           /. (float_of_int r.Traffic.Load.wall_ns /. 1e9))))
    load_reports;
  Buffer.add_string buf
    (Printf.sprintf
       "},\"alloc_per_event\":{\"canonical_load\":%.2f},\"profiled_events\":%d}\n"
       alloc_per_event prof_events);
  (try Unix.mkdir "bench" 0o755 with Unix.Unix_error _ -> ());
  (try Unix.mkdir "bench/history" 0o755 with Unix.Unix_error _ -> ());
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 history_file
  in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "perf trajectory appended to %s@." history_file

(* -------------------------- micro-benchmarks -------------------------- *)

let payment_run protocol ~hops ~seed =
  let cfg = Runner.default_config ~hops ~seed in
  ignore (Runner.run cfg protocol)

(* One Test.make per experiment: times a single representative run of that
   experiment's workload (the tables above aggregate hundreds of them). *)
let experiment_tests =
  let wcfg = Weak_protocol.default_config in
  let committee =
    { wcfg with Weak_protocol.tm = Weak_protocol.Committee { f = 1 } }
  in
  [
    Test.make ~name:"e1_sync_payment_4hops"
      (Staged.stage (fun () -> payment_run Runner.Sync_timebound ~hops:4 ~seed:1));
    Test.make ~name:"e2_adversarial_psync"
      (Staged.stage (fun () ->
           let cfg =
             {
               (Runner.default_config ~hops:3 ~seed:1) with
               network = Runner.Psync { gst = 10_000 };
             }
           in
           ignore (Runner.run cfg Runner.Sync_timebound)));
    Test.make ~name:"e3_weak_single_tm"
      (Staged.stage (fun () -> payment_run (Runner.Weak wcfg) ~hops:3 ~seed:1));
    Test.make ~name:"e4_weak_abort_path"
      (Staged.stage (fun () ->
           payment_run
             (Runner.Weak { wcfg with Weak_protocol.patience = 0 })
             ~hops:3 ~seed:1));
    Test.make ~name:"e5_htlc_8hops"
      (Staged.stage (fun () -> payment_run Runner.Htlc ~hops:8 ~seed:1));
    Test.make ~name:"e6_byzantine_thief"
      (Staged.stage (fun () ->
           let topo = Topology.create ~hops:3 in
           let cfg =
             {
               (Runner.default_config ~hops:3 ~seed:1) with
               faults = [ (Topology.escrow topo 0, Byzantine.Thief_escrow) ];
             }
           in
           ignore (Runner.run cfg Runner.Sync_timebound)));
    Test.make ~name:"e7_deal_3cycle_timelock"
      (Staged.stage (fun () ->
           ignore
             (Deals.Deal_runner.run
                (Deals.Deal_runner.default_config
                   (Deals.Deal.three_cycle ())
                   Deals.Deal_runner.Timelock))));
    Test.make ~name:"e8_committee_consensus"
      (Staged.stage (fun () ->
           payment_run (Runner.Weak committee) ~hops:2 ~seed:1));
    Test.make ~name:"e9_naive_drift_run"
      (Staged.stage (fun () ->
           let cfg =
             { (Runner.default_config ~hops:5 ~seed:1) with drift_ppm = 80_000 }
           in
           ignore (Runner.run cfg Runner.Naive_universal)));
    Test.make ~name:"e10_deal_embedding"
      (Staged.stage (fun () ->
           ignore
             (Deals.Deal_runner.run
                (Deals.Deal_runner.default_config
                   (Deals.Deal.two_party_swap ())
                   Deals.Deal_runner.Cbc))));
    Test.make ~name:"e11_ilp_atomic"
      (Staged.stage (fun () ->
           payment_run
             (Runner.Atomic Atomic_protocol.default_config)
             ~hops:3 ~seed:1));
    Test.make ~name:"chaos_faulted_payment"
      (Staged.stage
         (let plan =
            match
              Faults.Fault_plan.of_string
                "drop *>* 0.1; dup *>* 0.05; crash 1@500+800"
            with
            | Ok p -> p
            | Error e -> failwith e
          in
          fun () ->
            ignore (Xchain.Chaos.run_one ~hops:3 ~plan ~seed:1 ())));
    Test.make ~name:"chaos_soak_10plans"
      (Staged.stage (fun () ->
           ignore (Xchain.Chaos.soak ~hops:2 ~runs:10 ~seed:1 ())));
    Test.make ~name:"load_100_mixed_payments"
      (Staged.stage
         (let workload =
            match
              Traffic.Workload.of_string
                "payments=100 hops=2 value=1000 commission=10 \
                 arrival=poisson:10 mix=sync:1,weak:1 policy=reserve cap=0 \
                 liquidity=0 patience=2000 stuck=0 drift=10000 gst=none"
            with
            | Ok w -> w
            | Error e -> failwith e
          in
          fun () -> ignore (Traffic.Load.run ~workload ~seed:1 ())));
    Test.make ~name:"load_100_causal_on"
      (Staged.stage
         (let workload =
            match
              Traffic.Workload.of_string
                "payments=100 hops=2 value=1000 commission=10 \
                 arrival=poisson:10 mix=sync:1,weak:1 policy=reserve cap=0 \
                 liquidity=0 patience=2000 stuck=0 drift=10000 gst=none"
            with
            | Ok w -> w
            | Error e -> failwith e
          in
          fun () ->
            ignore
              (Traffic.Load.run ~causal:(Obsv.Causal.create ()) ~workload
                 ~seed:1 ())));
  ]

let substrate_tests =
  [
    Test.make ~name:"sim_event_queue_push_pop_1k"
      (Staged.stage (fun () ->
           let q = Sim.Event_queue.create () in
           for i = 0 to 999 do
             Sim.Event_queue.push q ~time:((i * 7919) mod 1000) i
           done;
           while not (Sim.Event_queue.is_empty q) do
             ignore (Sim.Event_queue.pop q)
           done));
    Test.make ~name:"sim_rng_splitmix_1k"
      (Staged.stage
         (let g = Sim.Rng.create ~seed:1 in
          fun () ->
            for _ = 1 to 1000 do
              ignore (Sim.Rng.next_int64 g)
            done));
    Test.make ~name:"xcrypto_sign_verify"
      (Staged.stage
         (let reg = Xcrypto.Auth.create ~seed:1 in
          let signer = Xcrypto.Auth.register reg 0 in
          fun () ->
            let s = Xcrypto.Auth.sign signer "message body" in
            assert (Xcrypto.Auth.verify reg 0 "message body" s)));
    Test.make ~name:"ledger_deposit_release_cycle"
      (Staged.stage
         (let book = Ledger.Book.create ~currency:"x" in
          Ledger.Book.open_account book ~owner:0 ~balance:1_000_000;
          Ledger.Book.open_account book ~owner:1 ~balance:0;
          fun () ->
            match Ledger.Book.deposit book ~from_:0 ~amount:10 with
            | Ok dep -> (
                match Ledger.Book.release book dep ~to_:1 with
                | Ok () ->
                    ignore (Ledger.Book.transfer book ~src:1 ~dst:0 ~amount:10)
                | Error _ -> assert false)
            | Error _ -> assert false));
    Test.make ~name:"params_derive_32hops"
      (Staged.stage (fun () ->
           ignore (Params.derive (Params.default_input ~hops:32))));
  ]

let run_benchmarks () =
  Fmt.pr "@.##### Micro-benchmarks (Bechamel, monotonic clock) #####@.@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let groups =
    [
      Test.make_grouped ~name:"experiments" experiment_tests;
      Test.make_grouped ~name:"substrate" substrate_tests;
    ]
  in
  Fmt.pr "%-48s %16s %10s@." "benchmark" "time/run" "r²";
  Fmt.pr "%s@." (String.make 76 '-');
  List.iter
    (fun grouped ->
      let raw = Benchmark.all cfg instances grouped in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
      List.iter
        (fun name ->
          let v = Hashtbl.find results name in
          let est =
            match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square v with Some r -> r | None -> nan
          in
          let human =
            if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
            else Printf.sprintf "%.0f ns" est
          in
          Fmt.pr "%-48s %16s %10.4f@." name human r2)
        (List.sort compare names))
    groups

let () =
  let per_experiment = print_tables () in
  write_metrics_json per_experiment;
  let load_reports = write_load_json () in
  let routing_reports = write_routing_json () in
  write_blame_json ();
  write_fleet_json ();
  write_committee_json ();
  (* the tiny diamond pair is a correctness artifact, not a throughput
     figure — only the family-sized runs join the perf trajectory *)
  let routing_history =
    List.filter_map
      (fun (name, (r : Traffic.Load.report)) ->
        if r.Traffic.Load.workload.Traffic.Workload.payments >= 50 then
          Some ("routing_" ^ name, r)
        else None)
      routing_reports
  in
  write_history (load_reports @ routing_history);
  run_benchmarks ();
  Fmt.pr "@.done.@."

(* One sample, run in a fresh child process. It times public calls into
   the layers from outside and prints what it measured on stdout, one
   record per line, for the parent process to collect:

     m NAME VALUE                       a measurement
     s NAME PARENT START END COUNT      a span (monotonic ns; PARENT "-" = root)
     f REASON                           a failed self-check

   Modes: [run] is the untraced end-to-end call; [setup] times the call up
   to the engine loop start and no further; [reference] times a fixed job
   of the bench's own, to gauge the host's speed; [prof] is the call with
   [Obsv.Prof] armed on a bench-supplied clock; [twin] is [prof] with the
   monitor left off; [units] times unit calls into single layers. *)

open Perf_lib

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())
let metric name v = Printf.printf "m %s %.17g\n" name v
let fail reason = Printf.printf "f %s\n" reason

let check cond fmt =
  Printf.ksprintf (fun reason -> if not cond then fail reason) fmt

let span ?(parent = "-") name ~start ~stop ~count =
  Printf.printf "s %s %s %d %d %d\n" name parent start stop count

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let mb words = fi (words * (Sys.word_size / 8)) /. 1e6

(* --- the process-wide telemetry registry, fresh in every child --- *)

let registry () = Obsv.Metrics.snapshot Obsv.Metrics.default

let registry_total snap name =
  List.fold_left
    (fun acc (s : Obsv.Metrics.sample) ->
      if s.s_name <> name then acc
      else
        match s.s_value with
        | Obsv.Metrics.Counter_v v | Obsv.Metrics.Gauge_v v -> acc + v
        | Obsv.Metrics.Histogram_v { count; _ } -> acc + count)
    0 snap

(* Upper bound of the first bucket holding a [q] share of the histogram's
   observations, children summed; as coarse as the bucket layout. *)
let histogram_quantile snap name q =
  let children =
    List.filter_map
      (fun (s : Obsv.Metrics.sample) ->
        match s.s_value with
        | Obsv.Metrics.Histogram_v { buckets; _ } when s.s_name = name ->
            Some buckets
        | _ -> None)
      snap
  in
  match children with
  | [] -> 0.
  | first :: rest ->
      let merged =
        List.fold_left (List.map2 (fun (b, c) (_, c') -> (b, c + c'))) first rest
      in
      let total = match List.rev merged with (_, c) :: _ -> c | [] -> 0 in
      let need = Float.ceil (q *. fi total) in
      let rec go = function
        | [] -> 0.
        | (ub, cum) :: tl -> if fi cum >= need && total > 0 then fi ub else go tl
      in
      go merged

let workload_of spec =
  match Traffic.Workload.of_string spec with
  | Ok w -> w
  | Error e -> failwith ("bad workload spec: " ^ e)

let check_load (r : Traffic.Load.report) monitor =
  check (r.status = "quiescent") "load run ended %s, not quiescent" r.status;
  check
    (r.violated = 0 && r.violations = [])
    "load run has %d safety violations" (List.length r.violations);
  check r.conservation_ok "load run failed its conservation audit";
  match monitor with
  | None -> ()
  | Some m ->
      check
        (Obsv.Monitor.violations m = [])
        "online monitor ended with %d violated properties"
        (List.length (Obsv.Monitor.violations m))

(* --- run: the untraced end-to-end call --- *)

let end_to_end ~ops ~committed ~failed ~events ~wall_ns ~words =
  let wall_s = fi wall_ns /. 1e9 in
  metric "ops" (fi ops);
  metric "failed" (fi failed);
  metric "events" (fi events);
  metric "wall_s" wall_s;
  metric "committed_per_s" (fi committed /. wall_s);
  metric "alloc_words_per_op" (fi words /. fi ops);
  metric "peak_heap_mb" (mb (Gc.quick_stat ()).Gc.top_heap_words)

let run ~seed (w : Catalogue.workload) =
  match w.target with
  | Load { spec; monitored } ->
      let workload = workload_of spec in
      let monitor = if monitored then Some (Obsv.Monitor.create ()) else None in
      let w0 = minor_words () in
      let t0 = now_ns () in
      let r = Traffic.Load.run ?monitor ~workload ~seed () in
      let t1 = now_ns () in
      let words = minor_words () - w0 in
      check_load r monitor;
      end_to_end ~ops:workload.payments ~committed:r.committed
        ~failed:(r.rejected + r.stuck + r.violated)
        ~events:r.events ~wall_ns:(t1 - t0) ~words;
      metric "sim_latency_p50_ticks" (fi r.latency_p50);
      metric "sim_latency_p99_ticks" (fi r.latency_p99)
  | Soak { hops; runs } ->
      let w0 = minor_words () in
      let t0 = now_ns () in
      let s = Xchain.Chaos.soak ~hops ~runs ~domains:1 ~seed () in
      let t1 = now_ns () in
      let words = minor_words () - w0 in
      check (s.violations = []) "soak has %d safety violations"
        (List.length s.violations);
      (* a stuck soak run lost liveness to its fault plan, which the
         harness classifies, not fails; only safety violations fail *)
      end_to_end ~ops:runs ~committed:s.commits
        ~failed:(List.length s.violations)
        ~events:s.events ~wall_ns:(t1 - t0) ~words;
      (* per-run settle latency, from the runner's latency histogram *)
      let snap = registry () in
      metric "sim_latency_p50_ticks"
        (histogram_quantile snap "xchain_payment_latency" 0.50);
      metric "sim_latency_p99_ticks"
        (histogram_quantile snap "xchain_payment_latency" 0.99)

(* --- setup: the call up to the engine loop start --- *)

exception Loop_start

(* The profiler's first clock read is [Engine.run]'s loop start, so a
   clock that raises there cuts each run off exactly at its loop: what is
   left is the set-up a user pays before the first event. *)
let setup ~seed (w : Catalogue.workload) =
  let reads = ref 0 in
  let cut () =
    incr reads;
    raise Loop_start
  in
  let prof = Obsv.Prof.create ~now_ns:cut () in
  match w.target with
  | Load { spec; monitored } ->
      let workload = workload_of spec in
      let monitor = if monitored then Some (Obsv.Monitor.create ()) else None in
      let t0 = now_ns () in
      (match Traffic.Load.run ~prof ?monitor ~workload ~seed () with
      | _ -> fail "load run finished without starting its engine loop"
      | exception Loop_start -> ());
      let t1 = now_ns () in
      check (!reads = 1) "expected one loop start, saw %d" !reads;
      metric "setup_s" (fi (t1 - t0) /. 1e9)
  | Soak { hops; runs } ->
      (* every run raises at its loop start; the soak records each as a
         failed job and reports them together once all have set up *)
      let t0 = now_ns () in
      (match Xchain.Chaos.soak ~hops ~runs ~prof ~seed () with
      | _ -> fail "soak finished without cutting its runs at the loop start"
      | exception Failure _ -> ());
      let t1 = now_ns () in
      check (!reads = runs) "expected %d loop starts, saw %d" runs !reads;
      metric "setup_s" (fi (t1 - t0) /. 1e9)

(* --- reference: the host's speed, from a job of the bench's own --- *)

module Int_map = Map.Make (Int)

(* A fixed job that calls no xchain code, so no change to the program can
   change its time; only the host can. It does the simulator's kind of
   work: allocation, pointer chasing and comparisons in an ordered map of
   50k bindings. *)
let reference_job () =
  let n = 50_000 in
  let rng = Random.State.make [| 42 |] in
  let m = ref Int_map.empty in
  for i = 1 to n do
    m := Int_map.add (Random.State.bits rng) (i, string_of_int i) !m
  done;
  let sum = ref 0 in
  for _ = 1 to n do
    let k = Random.State.bits rng in
    match Int_map.find_first_opt (fun x -> x >= k) !m with
    | Some (_, (v, _)) -> sum := !sum + v
    | None -> ()
  done;
  !sum

let reference () =
  for _ = 1 to 4 do
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (reference_job ()));
    metric "reference_s" (fi (now_ns () - t0) /. 1e9)
  done

(* --- prof / twin: the call with the dispatch profiler armed --- *)

(* The bench-supplied profiler clock: monotonic and allocation-free,
   except at its first read — the first engine loop start — where it also
   notes the allocation and heap so far. Its last read is the last loop
   end. *)
type clock = {
  mutable first : int;
  mutable last : int;
  mutable first_words : int;
  mutable first_heap : int;
}

let clock () =
  let c = { first = -1; last = 0; first_words = 0; first_heap = 0 } in
  let read () =
    let t = now_ns () in
    if c.first < 0 then begin
      c.first <- t;
      c.first_words <- minor_words ();
      c.first_heap <- (Gc.quick_stat ()).Gc.heap_words
    end;
    c.last <- t;
    t
  in
  (c, read)

(* Everything a profiled call yields besides the workload's own report:
   engine, role and registry figures, the call's set-up and post-loop
   shares, and the spans. Also reconciles the profile: every dispatch is
   counted once, and site time nests inside loop time inside call time.
   [loops] is the number of engine runs the call made. *)
let call_layers prof (c : clock) ~root ~loops ~ops ~events ~t0 ~t1 ~w0 =
  let snap = registry () in
  let loop_ns, loop_words = Obsv.Prof.run_totals prof in
  let sites =
    List.map
      (fun (s : Obsv.Prof.site) ->
        ( s.s_label,
          Obsv.Prof.kind_name s.s_kind,
          { Stats.count = s.s_count; wall_ns = s.s_wall_ns; words = s.s_alloc_words }
        ))
      (Obsv.Prof.sites prof)
  in
  let total = List.fold_left (fun a (_, _, c) -> Stats.add a c) Stats.zero sites in
  let events_total = registry_total snap "xchain_events_total" in
  check
    (total.count = events && events = events_total)
    "profile does not reconcile: %d site dispatches, %d report events, %d \
     xchain_events_total"
    total.count events events_total;
  check
    (total.wall_ns <= loop_ns && loop_ns <= t1 - t0)
    "profile does not nest: site %d ns, loop %d ns, call %d ns" total.wall_ns
    loop_ns (t1 - t0);
  let ev = fi events and opsf = fi ops in
  metric "engine.events_per_op" (ev /. opsf);
  metric "engine.events_per_s" (ratio ev (fi loop_ns /. 1e9));
  metric "engine.loop_ns_per_event" (ratio (fi (loop_ns - total.wall_ns)) ev);
  metric "engine.loop_words_per_event"
    (ratio (fi (loop_words - total.words)) ev);
  metric "engine.dispatch_ns_per_event" (ratio (fi total.wall_ns) ev);
  metric "engine.dispatch_words_per_event" (ratio (fi total.words) ev);
  let set = registry_total snap "xchain_timers_set_total" in
  let fired = registry_total snap "xchain_timers_fired_total" in
  let stale = registry_total snap "xchain_timers_stale_total" in
  metric "engine.timers_set_per_op" (fi set /. opsf);
  metric "engine.timers_stale_frac" (ratio (fi stale) (fi (fired + stale)));
  metric "event_queue.depth_p50"
    (histogram_quantile snap "xchain_prof_queue_depth" 0.50);
  metric "event_queue.depth_p99"
    (histogram_quantile snap "xchain_prof_queue_depth" 0.99);
  metric "network.messages_per_op"
    (fi (registry_total snap "xchain_messages_sent_total") /. opsf);
  metric "faults.injected_per_run"
    (fi (registry_total snap "xchain_faults_injected_total") /. opsf);
  List.iter
    (fun (r, (c : Stats.cost)) ->
      metric (Printf.sprintf "role.%s.events_per_op" r) (fi c.count /. opsf);
      metric
        (Printf.sprintf "role.%s.ns_per_event" r)
        (ratio (fi c.wall_ns) (fi c.count));
      metric
        (Printf.sprintf "role.%s.words_per_event" r)
        (ratio (fi c.words) (fi c.count)))
    (Stats.by_role sites);
  metric "setup.words_per_op" (fi (c.first_words - w0) /. opsf);
  metric "setup.heap_mb" (mb c.first_heap);
  metric "traffic.post_loop_ms" (fi (t1 - c.last) /. 1e6);
  metric "call.loop_share" (fi loop_ns /. fi (t1 - t0));
  metric "call.outside_loop_us_per_op" (fi (t1 - t0 - loop_ns) /. 1e3 /. opsf);
  (* raw figures the parent combines across samples *)
  metric "prof.call_s" (fi (t1 - t0) /. 1e9);
  metric "prof.loop_ns_per_event" (ratio (fi loop_ns) ev);
  metric "prof.events" ev;
  span root ~start:t0 ~stop:t1 ~count:1;
  (* one run has contiguous set-up / loop / post phases; a soak's loops
     interleave with its runs' set-up and checks, so they are summed *)
  if loops = 1 then begin
    span "load.setup" ~parent:root ~start:t0 ~stop:c.first ~count:1;
    span "load.post" ~parent:root ~start:c.last ~stop:t1 ~count:1
  end;
  span "engine.loop" ~parent:root ~start:c.first ~stop:(c.first + loop_ns)
    ~count:loops;
  (* one aggregate span per role x kind under the loop *)
  List.iter
    (fun ((role, kind), (cost : Stats.cost)) ->
      span (role ^ "." ^ kind) ~parent:"engine.loop" ~start:c.first
        ~stop:(c.first + cost.wall_ns) ~count:cost.count)
    (Stats.by_role_kind sites);
  span "engine.loop_self" ~parent:"engine.loop" ~start:c.first
    ~stop:(c.first + loop_ns - total.wall_ns)
    ~count:events

let profiled ~seed ~twin (w : Catalogue.workload) =
  let c, read = clock () in
  let prof = Obsv.Prof.create ~now_ns:read () in
  match w.target with
  | Load { spec; monitored } ->
      let workload = workload_of spec in
      let monitor =
        if monitored && not twin then Some (Obsv.Monitor.create ()) else None
      in
      let ops = workload.payments in
      let w0 = minor_words () in
      let t0 = now_ns () in
      let r = Traffic.Load.run ~prof ?monitor ~workload ~seed () in
      let t1 = now_ns () in
      check_load r monitor;
      metric "ops" (fi ops);
      metric "failed" (fi (r.rejected + r.stuck + r.violated));
      call_layers prof c ~root:"load.run" ~loops:1 ~ops ~events:r.events ~t0
        ~t1 ~w0;
      metric "routing.paths_per_op"
        (match r.routing with
        | Some rs -> fi rs.paths_selected /. fi ops
        | None -> 0.);
      (match r.committee_stats with
      | Some c ->
          metric "consensus.rounds_per_cert" (ratio (fi c.rounds) (fi c.certs));
          metric "committee.verdicts_per_cert"
            (ratio (fi c.verdicts) (fi c.certs))
      | None ->
          metric "consensus.rounds_per_cert" 0.;
          metric "committee.verdicts_per_cert" 0.);
      metric "monitor.step_ns_final"
        (match monitor with
        | None -> 0.
        | Some m ->
            (* the run's own monitor, at the run's final state *)
            let steps = 200 in
            let s0 = now_ns () in
            for _ = 1 to steps do
              Obsv.Monitor.step m ~at:r.makespan
            done;
            fi (now_ns () - s0) /. fi steps)
  | Soak { hops; runs } ->
      let w0 = minor_words () in
      let t0 = now_ns () in
      let s = Xchain.Chaos.soak ~hops ~runs ~prof ~seed () in
      let t1 = now_ns () in
      check (s.violations = []) "soak has %d safety violations"
        (List.length s.violations);
      metric "ops" (fi runs);
      metric "failed" (fi (List.length s.violations));
      call_layers prof c ~root:"chaos.soak" ~loops:runs ~ops:runs
        ~events:s.events ~t0 ~t1 ~w0;
      metric "routing.paths_per_op" 0.;
      metric "consensus.rounds_per_cert" 0.;
      metric "committee.verdicts_per_cert" 0.;
      metric "monitor.step_ns_final" 0.

(* --- units: single-layer calls, timed in isolation --- *)

(* Nanoseconds per call: the median of five timed batches of [iters]
   calls, after one untimed warm-up batch. [fresh] builds each batch's
   state outside the timed region. *)
let per_call ~iters fresh =
  let batch () =
    let f = fresh () in
    let t0 = now_ns () in
    for i = 0 to iters - 1 do
      f i
    done;
    fi (now_ns () - t0) /. fi iters
  in
  ignore (batch ());
  Stats.median (List.init 5 (fun _ -> batch ()))

let full_liquidity (topo : Routing.Topology.t) i =
  Routing.Topology.capacity topo.edges.(i)

(* Deposits the busiest shared book holds when the workload ends: one per
   payment on each linear escrow book; on a graph, one per split over each
   edge, replayed through a router like the run's (liquidity is unbounded,
   so the replay takes the run's own path choices). *)
let final_deposits (w : Catalogue.workload) =
  match w.target with
  | Soak _ -> 1
  | Load { spec; _ } -> (
      let workload = workload_of spec in
      match workload.topology with
      | None -> workload.payments
      | Some topo ->
          let router = Routing.Router.create ~strategy:workload.route topo in
          let legs = Array.make (Array.length topo.edges) 0 in
          for _ = 1 to workload.payments do
            match
              Routing.Router.route router ~avail:(full_liquidity topo)
                ~value:workload.value ~max_splits:workload.splits
            with
            | Ok splits ->
                List.iter
                  (fun (s : Routing.Router.split) ->
                    List.iter (fun e -> legs.(e) <- legs.(e) + 1) s.path)
                  splits
            | Error e -> failwith ("route replay: " ^ e)
          done;
          Array.fold_left max 0 legs)

let fresh_book ~deposits =
  let b = Ledger.Book.create ~currency:"bench" in
  Ledger.Book.open_account b ~owner:0 ~balance:max_int;
  Ledger.Book.open_account b ~owner:1 ~balance:0;
  for _ = 1 to deposits do
    match Ledger.Book.deposit b ~from_:0 ~amount:1 with
    | Ok d -> ignore (Ledger.Book.release b d ~to_:1)
    | Error _ -> fail "ledger deposit refused"
  done;
  b

let units ~seed ~depth (w : Catalogue.workload) =
  let rng = Random.State.make [| seed |] in
  let draws = Array.init 4096 (fun _ -> 1 + Random.State.int rng 100) in
  let at i = draws.(i land 4095) in
  (* event queue: pop-then-push at a standing depth, as the engine does *)
  metric "event_queue.push_pop_ns"
    (per_call ~iters:100_000 (fun () ->
         let q = Sim.Event_queue.create () in
         for i = 1 to max 1 depth do
           ignore (Sim.Event_queue.push q ~time:(at i) ())
         done;
         fun i ->
           match Sim.Event_queue.pop q with
           | Some (t, ()) -> ignore (Sim.Event_queue.push q ~time:(t + at i) ())
           | None -> ()));
  (* network: fate, then delivery time, over a load-sized link space *)
  let srcs = Array.init 4096 (fun _ -> Random.State.int rng 100_000) in
  metric "network.send_ns"
    (per_call ~iters:100_000 (fun () ->
         let net =
           Sim.Network.create ~link_stats:false
             (Sim.Network.Synchronous { delta = 100 })
             (Sim.Rng.create ~seed)
         in
         fun i ->
           let src = srcs.(i land 4095) in
           List.iter
             (fun _ ->
               ignore
                 (Sim.Network.delivery_time net ~send_time:i ~src ~dst:(src + 1)
                    ~tag:"msg"))
             (Sim.Network.fate net ~send_time:i ~src ~dst:(src + 1) ~tag:"msg")));
  (* trace: the load configuration, a 4096-entry ring with one hook *)
  metric "trace.record_ns"
    (per_call ~iters:200_000 (fun () ->
         let tr : (unit, unit) Sim.Trace.t = Sim.Trace.create ~capacity:4096 () in
         let seen = ref 0 in
         Sim.Trace.on_record tr (fun _ -> incr seen);
         fun i ->
           Sim.Trace.record tr
             (Sim.Trace.Sent { t = i; src = 1; dst = 2; tag = "msg"; msg = () })));
  metric "ledger.deposit_release_ns"
    (per_call ~iters:20_000 (fun () ->
         let b = fresh_book ~deposits:0 in
         fun _ ->
           match Ledger.Book.deposit b ~from_:0 ~amount:1 with
           | Ok d -> ignore (Ledger.Book.release b d ~to_:1)
           | Error _ -> fail "ledger deposit refused"));
  let deposits = final_deposits w in
  let book = fresh_book ~deposits in
  check (Ledger.Book.audit book = Ok ()) "unit book fails its audit";
  metric "ledger.audit_ns"
    (per_call ~iters:(max 10 (1_000_000 / (deposits + 1))) (fun () _ ->
         ignore (Ledger.Book.audit book)));
  let topo =
    match Routing.Topology.of_string "er:6:4:9" with
    | Ok t -> t
    | Error e -> failwith ("bad topology: " ^ e)
  in
  metric "routing.route_ns"
    (per_call ~iters:10_000 (fun () ->
         let router =
           Routing.Router.create ~strategy:Routing.Router.Round_robin topo
         in
         fun _ ->
           ignore
             (Routing.Router.route router ~avail:(full_liquidity topo)
                ~value:1000 ~max_splits:3)));
  let reg = Xcrypto.Auth.create ~seed in
  let signer = Xcrypto.Auth.register reg 0 in
  let msgs =
    Array.init 256 (fun i -> Printf.sprintf "verdict|item=%d|commit|hops=2" i)
  in
  metric "xcrypto.sign_ns"
    (per_call ~iters:20_000 (fun () i ->
         ignore (Xcrypto.Auth.sign signer msgs.(i land 255))));
  let sigs = Array.map (Xcrypto.Auth.sign signer) msgs in
  check
    (Array.for_all2 (Xcrypto.Auth.verify reg 0) msgs sigs)
    "a unit signature fails to verify";
  metric "xcrypto.verify_ns"
    (per_call ~iters:20_000 (fun () i ->
         ignore (Xcrypto.Auth.verify reg 0 msgs.(i land 255) sigs.(i land 255))));
  let qs = Quorum_system.majority ~n:16 ~f:5 () in
  let present = Array.init 16 (fun i -> i < 11) in
  check (Quorum_system.is_quorum qs ~present) "11 of majority 16/5 is no quorum";
  metric "quorum.is_quorum_ns"
    (per_call ~iters:200_000 (fun () _ ->
         ignore (Quorum_system.is_quorum qs ~present)))

(* The benchmark's workloads and metrics — the same catalogue
   BENCHMARK.json declares. Keep the two in step: names, units,
   directions and bounds here are what the benchmark prints, checks and
   compares against. *)

type target =
  | Load of { spec : string; monitored : bool }
      (** one [Traffic.Load.run] over a [Traffic.Workload] one-line spec *)
  | Soak of { hops : int; runs : int }  (** one [Xchain.Chaos.soak] *)

type workload = { name : string; why : string; target : target }

let linear_spec ~payments =
  Printf.sprintf
    "payments=%d hops=2 value=1000 commission=10 arrival=poisson:4 \
     mix=sync:2,weak:2,htlc:1,atomic:1 policy=reserve cap=0 liquidity=0 \
     patience=2000 stuck=0 drift=10000 gst=none"
    payments

let routed_spec =
  "payments=1000 hops=2 value=1000 commission=10 arrival=poisson:4 \
   mix=sync:1,weak:1 policy=reserve cap=0 liquidity=0 patience=2000 stuck=0 \
   drift=10000 gst=none topology=er:6:4:9 route=round-robin splits=3"

let committee_spec =
  "payments=600 hops=2 value=1000 commission=10 arrival=poisson:4 \
   mix=shared policy=reserve cap=0 liquidity=0 patience=100000 stuck=0 \
   drift=0 gst=none committee=majority:16:5:32:4"

(* Each workload stresses a different layer; the [why] strings are the
   ones BENCHMARK.json records. Sizes keep one sample under a second and
   its heap under 70 MB, so a run of the benchmark takes dozens of
   samples, each slowed by contention on a shared host about as much as
   the reference job is. *)
let workloads =
  [
    {
      name = "linear_2k";
      why =
        "hot path: ~52k events through queue, network, dispatch, handlers \
         and ledger; no router, monitor or committee";
      target = Load { spec = linear_spec ~payments:2000; monitored = false };
    };
    {
      name = "routed_1k";
      why =
        "every payment splits over 2 graph paths: the router and per-edge \
         books work that linear_2k skips";
      target = Load { spec = routed_spec; monitored = false };
    };
    {
      name = "committee_600";
      why =
        "shared notary committee: consensus, quorum and xcrypto dominate, \
         the event queue barely matters";
      target = Load { spec = committee_spec; monitored = false };
    };
    {
      name = "monitored_1k";
      why =
        "online monitor on: its per-dispatch conservation audit does most of \
         the work and grows with the square of run size";
      target = Load { spec = linear_spec ~payments:1000; monitored = true };
    };
    {
      name = "chaos_2k";
      why =
        "2k tiny engines under random fault plans: setup and post-hoc checks \
         outside the loop dominate, queues stay small";
      target = Soak { hops = 2; runs = 2000 };
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type better = Higher | Lower

type metric = { m_name : string; m_unit : string; better : better }

type bounded = { metric : metric; bound : float }
(** An end-to-end metric and the share of the parent's value by which it
    may worsen before a change counts as a regression. *)

let m m_name m_unit better = { m_name; m_unit; better }

(* Seconds the bench's reference job ({!Sample.reference_job}) takes on
   the host the bounds were set on. Timings are reported as they would
   read on that host: a host running the job slower by some factor has
   its throughput scaled up, and its set-up time down, by that factor. *)
let reference_s = 0.05

(* Untraced samples only. Each bound is at least three times the widest
   spread of run values seen over ten seeds on a shared two-core host:
   host drift left after the host adjustment for the timings,
   seed-to-seed variation for the deterministic metrics. [setup_s] has
   the largest bound. *)
let end_to_end =
  [
    { metric = m "committed_per_s" "1/s" Higher; bound = 0.25 };
    { metric = m "setup_s" "s" Lower; bound = 0.25 };
    { metric = m "peak_heap_mb" "MB" Lower; bound = 0.15 };
    { metric = m "alloc_words_per_op" "words/op" Lower; bound = 0.2 };
    { metric = m "sim_latency_p50_ticks" "ticks" Lower; bound = 0.2 };
    { metric = m "sim_latency_p99_ticks" "ticks" Lower; bound = 0.2 };
  ]

(* Deterministic for a fixed (workload, seed): every untraced sample of a
   run must agree on these exactly. *)
let deterministic =
  [
    "events";
    "failed";
    "peak_heap_mb";
    "alloc_words_per_op";
    "sim_latency_p50_ticks";
    "sim_latency_p99_ticks";
  ]

(* Profiler role labels rolled up into the roles the layer ledger
   reports: the runner's per-payment TM ("tm") is an auxiliary process
   like load's "aux", and every other label (routed "node", "proc",
   "idle") is a plain node. *)
let roles =
  [ "sched"; "alice"; "chloe"; "bob"; "escrow"; "aux"; "notary"; "node" ]

let role_of_label = function
  | ("sched" | "alice" | "chloe" | "bob" | "escrow" | "aux" | "notary") as r ->
      r
  | "tm" -> "aux"
  | _ -> "node"

(* From the profiled samples and the unit calls; no bounds. *)
let per_layer =
  [
    m "engine.events_per_op" "events/op" Lower;
    m "engine.events_per_s" "events/s" Higher;
    m "engine.loop_ns_per_event" "ns/event" Lower;
    m "engine.loop_words_per_event" "words/event" Lower;
    m "engine.dispatch_ns_per_event" "ns/event" Lower;
    m "engine.dispatch_words_per_event" "words/event" Lower;
    m "engine.timers_set_per_op" "timers/op" Lower;
    m "engine.timers_stale_frac" "ratio" Lower;
    m "event_queue.depth_p50" "events" Lower;
    m "event_queue.depth_p99" "events" Lower;
    m "event_queue.push_pop_ns" "ns" Lower;
    m "network.messages_per_op" "msgs/op" Lower;
    m "network.send_ns" "ns" Lower;
    m "trace.record_ns" "ns" Lower;
    m "setup.words_per_op" "words/op" Lower;
    m "setup.heap_mb" "MB" Lower;
    m "traffic.post_loop_ms" "ms" Lower;
    m "ledger.deposit_release_ns" "ns" Lower;
    m "ledger.audit_ns" "ns" Lower;
    m "routing.route_ns" "ns" Lower;
    m "routing.paths_per_op" "paths/op" Lower;
    m "xcrypto.sign_ns" "ns" Lower;
    m "xcrypto.verify_ns" "ns" Lower;
    m "quorum.is_quorum_ns" "ns" Lower;
    m "consensus.rounds_per_cert" "rounds/cert" Lower;
    m "committee.verdicts_per_cert" "verdicts/cert" Higher;
    m "monitor.ns_per_event" "ns/event" Lower;
    m "monitor.explained_frac" "ratio" Higher;
    m "monitor.step_ns_final" "ns/step" Lower;
    m "call.loop_share" "ratio" Higher;
    m "call.outside_loop_us_per_op" "us/op" Lower;
    m "faults.injected_per_run" "faults/run" Lower;
    m "prof.overhead_ratio" "ratio" Lower;
  ]
  @ List.concat_map
      (fun r ->
        [
          m (Printf.sprintf "role.%s.events_per_op" r) "events/op" Lower;
          m (Printf.sprintf "role.%s.ns_per_event" r) "ns/event" Lower;
          m (Printf.sprintf "role.%s.words_per_event" r) "words/event" Lower;
        ])
      roles

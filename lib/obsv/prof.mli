(** Hot-path profiler for {!Sim.Engine} dispatch.

    Attributes host wall-time and minor-heap allocation to {e dispatch
    sites} — one accumulator per (payment × process label × event kind)
    triple, where the payment id is the causal trace id ({!Causal}), the
    label is a low-cardinality process role ("alice", "escrow", "sched",
    …) interned once at {!Sim.Engine.add_process} time, and the kind is
    the dequeued event's class (deliver / timer / crash / recover).

    The contract mirrors {!Causal}: the profiler is always compiled in
    and {e zero-cost when off}. An engine created without [?prof] pays
    exactly one [match] per dispatched event and allocates nothing; an
    engine created with [?prof] pays two clock reads and two
    [Gc.minor_words] reads per event, plus a hashtable upsert on the
    first visit to each site. Allocation is measured in minor-heap
    {b words} ([Gc.minor_words] deltas — unboxed reads, so the probe
    itself does not allocate); wall time comes from an injectable
    [now_ns] clock so library code stays free of [Unix].

    Alongside the per-site table the profiler registers, in a
    {!Metrics} registry, an event-queue depth histogram
    ([xchain_prof_queue_depth], sampled at every dequeue) and per-kind
    dispatch/allocation counters ([xchain_prof_dispatch_total],
    [xchain_prof_alloc_words_total]) — the per-subsystem Gc-pressure
    view that survives into [xchain metrics] and BENCH_metrics.json.

    Reconciliation semantics (tested in [test_obsv.ml]): the per-site
    [count]s sum {e exactly} to the number of profiled dispatches
    (= {!Sim.Engine.events_processed} when the profiler was attached for
    the engine's whole life); per-site wall and allocation
    sums are ≤ the {!run_totals}, whose excess — the epsilon — is the
    run loop's own bookkeeping outside [dispatch] (queue pop, peek,
    telemetry stores, the probes themselves). *)

type t

type kind = Deliver | Timer | Crash | Recover
(** The dispatch classes of {!Sim.Engine}'s event type: message
    delivery, timer firing, fault-injected crash, scheduled recovery. *)

val kind_name : kind -> string
(** ["deliver"], ["timer"], ["crash"], ["recover"]. *)

val create : ?now_ns:(unit -> int) -> ?metrics:Metrics.t -> unit -> t
(** [now_ns] is the monotonic host clock in nanoseconds (callers with
    [Unix] pass [Fleet.now_ns]; the default falls back to [Sys.time],
    which is coarse but keeps this library dependency-free). [metrics]
    (default {!Metrics.default}) receives the queue-depth histogram and
    per-kind counters. *)

(** {1 Engine-facing hot path} *)

val intern : t -> string -> int
(** Resolve a process label to its small-int id, registering it on first
    use. Idempotent; called once per process at [add_process] time, not
    per event. A profiler keeps at most 1024 distinct labels: past the
    cap, [intern] returns the shared ["overflow"] id — the same
    bounded-degradation policy as a {!Metrics} family's label sets. *)

val observe_queue_depth : t -> int -> unit
val enter : t -> unit
(** Stamp the clock and allocation counters just before [dispatch]. *)

val leave : t -> label:int -> kind:kind -> trace:int -> unit
(** Charge the wall/alloc deltas since {!enter} to site
    [(trace, label, kind)]. [trace] is the causal trace (payment) id of
    the dispatched event, or [-1] for unattributed work (crashes,
    recoveries, runs without causal tracing). *)

val run_begin : t -> unit
val run_end : t -> unit
(** Bracket a whole {!Sim.Engine.run} loop; deltas accumulate into
    {!run_totals} (multiple run calls sum). *)

(** {1 Views} *)

type site = {
  s_trace : int;  (** payment id, [-1] for unattributed work *)
  s_label : string;
  s_kind : kind;
  s_count : int;
  s_wall_ns : int;
  s_alloc_words : int;
}

val sites : t -> site list
(** All sites in deterministic order: by trace, then label id (intern
    order), then kind. *)

val run_totals : t -> int * int
(** [(wall_ns, alloc_words)] across every {!run_begin}/{!run_end}
    bracket — site sums plus the loop-overhead epsilon. *)

val pp_top : ?n:int -> Format.formatter -> t -> unit
(** The hot-site table: top [n] (default 15) sites by wall time, with
    count, per-event allocation, and share of total site wall time. *)

val to_json : t -> string
(** The profile report. Deterministic for a fixed seeded workload except
    the flat ["prof_timing"] objects (site and run wall-clock), which
    [scripts/strip_timing.py] removes — same convention as the reports'
    ["timing"] block. *)

val to_collapsed : t -> string
(** Collapsed-stack view, one [frame;frame;frame weight] line per site
    (weight = wall ns, floored at 1), loadable by speedscope or
    flamegraph.pl. Frames nest payment → process label → event kind;
    unattributed work nests under the ["run"] root. Line order is the
    deterministic {!sites} order; only the weights vary across reruns. *)

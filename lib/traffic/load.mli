(** The load scheduler: thousands of concurrent payments in one engine run.

    {!run} multiplexes [workload.payments] payments over a single
    {!Sim.Engine} run. Each payment owns one or more protocol {e
    instances}: a path through the escrows, running the unmodified linear
    protocol over that path. A linear workload is the one-path case — each
    payment owns exactly one instance over the whole [hops] chain — and a
    graph workload ([topology=]) splits each payment over up to [splits]
    edge-disjoint paths. Every instance gets its own block of engine pids
    at [base = 1 + id * stride]; protocol handlers written for a
    standalone payment run unmodified inside a block thanks to the
    engine's pid rebasing ({!Sim.Engine.add_process}). All instances share
    one {!Ledger.Book} per escrow (linear) or per edge (graph), so they
    contend for the same liquidity.

    Pid 0 is the load controller: it owns the arrival process, the
    admission queue (the in-flight cap and the liquidity check), the
    per-payment patience and stuck deadlines, and settlement bookkeeping.
    Control traffic ([start] / [traffic-done]) is delivered at the network
    model's lower bound and is exempt from fault tampering, as is the
    shared committee block, so a fault plan shakes the payments, never the
    harness.

    Every payment is classified on exit. Each instance is judged by the
    shared checker's safety subset ({!Props.Payment_fold.safety}) over
    its own fold, with crash-exposed pids dishonest, net positions from
    the fold's flows and HTLC judged [~preimage_is_receipt]; conservation
    is checked globally over the shared books. *)

type outcome = Tally.outcome = Committed | Aborted | Rejected | Stuck | Violated

type violation = {
  payment : int;  (** -1 for global (cross-payment) violations *)
  property : string;  (** a {!Props.Payment_fold.safety} property, or "ES/M" *)
  detail : string;
}

type routing_stats = {
  topology : string;  (** canonical {!Routing.Topology.to_string} form *)
  strategy : string;  (** ["shortest"] or ["round-robin"] *)
  max_splits : int;
  offered_value : int;  (** payments × value *)
  committed_value : int;
      (** value that reached a sink across all paid splits — partially
          committed payments count their paid splits here even though the
          payment itself is not [Committed] *)
  paths_selected : int;
      (** path choices summed over admissions; each starts one protocol
          instance *)
  split_payments : int;  (** payments admitted over more than one path *)
  partial_payments : int;
      (** aborted payments where at least one split still paid Bob *)
  no_route_rejections : int;
      (** rejected because no disjoint path set could carry the value *)
  instances_committed : int;
  instances_settled : int;
}
(** Router-level accounting for graph workloads; see {!report.routing}. *)

type committee_stats = Quorum.Committee.stats = {
  certs : int;  (** batch certificates the sequencer decided *)
  verdicts : int;  (** payment verdicts across all certificates *)
  max_batch : int;  (** largest single certificate *)
  rounds : int;
      (** DLS rounds summed over decided slots; slot_count = certs when
          every slot decided in round 0 *)
  cert_lat_sum : int;
      (** slot-open → certificate ticks summed over decided slots (mean =
          [cert_lat_sum / certs]) *)
  cert_lat_max : int;
}
(** Deterministic shared-committee accounting: the sequencer's running
    {!Quorum.Committee.stats} at the end of the run; see
    {!report.committee_stats}. *)

type report = {
  workload : Workload.t;
  seed : int;
  plan : string;  (** the fault plan's grammar line; ["none"] if empty *)
  status : string;  (** engine exit: quiescent / horizon / event-limit *)
  admitted : int;
  committed : int;
  aborted : int;
  rejected : int;  (** never admitted: queue patience ran out *)
  stuck : int;  (** admitted but unsettled at the stuck deadline *)
  violated : int;
  violations : violation list;
  liquidity_rejections : int;
      (** in-protocol [Insufficient_funds] deposit failures (optimistic
          policy); these are contention, not safety violations *)
  conservation_ok : bool;  (** every shared book audits clean *)
  latency_p50 : int;
  latency_p95 : int;
  latency_p99 : int;
  latency_max : int;
      (** commit latency: arrival (incl. queueing) to Bob's payout; 0 when
          nothing committed *)
  makespan : int;  (** global time when the engine stopped *)
  throughput_cpm : int;  (** committed payments per million ticks *)
  messages : int;  (** total sends *)
  max_in_flight : int;
  by_protocol : (string * int * int) list;
      (** (protocol, assigned, committed) in mix order *)
  blame : Obsv.Blame.agg option;
      (** latency decomposition summed over committed payments (and,
          separately, the slowest 1%); [None] unless the run was causally
          traced *)
  blame_reports : (int * Obsv.Blame.report) list;
      (** per-committed-payment critical paths, [(payment, report)] in
          payment order; each report's [total] is exactly that payment's
          commit latency ([paid_at - arrived_at]) *)
  routing : routing_stats option;
      (** [Some] iff the workload set [topology=]; linear workloads leave
          this [None] and their reports byte-identical to pre-routing
          output. For routed runs, [blame_reports] keys are {e instance}
          ids (payment × max_splits + split index), one per paid split *)
  committee_stats : committee_stats option;
      (** [Some] iff the workload set [committee=]; other reports leave
          this [None] and stay byte-identical to pre-committee output *)
  events : int;
      (** engine events the run dequeued — deterministic, the numerator of
          the events/sec throughput figure *)
  cost : Fleet.cost;
      (** the host cost of the whole {!run} call, telemetry aside: the
          report's one {e host-measured} (nondeterministic) member. It
          appears only in [to_json]'s trailing ["timing"] block, never in
          {!pp_summary}; its [top_heap_words] is the peak major heap
          seen within the call *)
}

val hosts : Workload.t -> int
(** The pid stride of one payment block: a fault plan for {!run}
    addresses hosts [0 .. hosts w - 1]. *)

val run :
  ?plan:Faults.Fault_plan.t ->
  ?causal:Obsv.Causal.t ->
  ?prof:Obsv.Prof.t ->
  ?monitor:Obsv.Monitor.t ->
  ?sampler:Obsv.Sampler.t ->
  ?recorder:(Protocols.Msg.t, Protocols.Obs.t) Sim.Trace.t ->
  workload:Workload.t ->
  seed:int ->
  unit ->
  report
(** One deterministic load run: equal [(workload, seed, plan)] gives a
    bit-identical {!report}. Raises [Invalid_argument] on an invalid
    workload or a plan that does not validate against the block's logical
    pid space (plans address {e hosts} — logical pids [0 .. stride-1] —
    and apply to every payment block, because one crashed escrow host
    takes that escrow down for every payment that routes through it).

    Only admission differs between the two shapes. A linear payment
    takes the whole chain; under [policy=reserve] admission holds every
    leg's amount against the payer accounts until that leg's deposit
    lands, and [policy=optimistic] checks nothing. A graph payment is
    split by a {!Routing.Router}; admission reserves each leg's amount by
    transferring it from the edge's funder account (whose balance {e is}
    the edge's available liquidity), and closing a settled split sweeps
    the unspent reservation back. A payment commits iff {e every} instance
    pays its sink; [report.routing] carries the router-level accounting,
    including partially-paid aborts. A [shared] committee serves both
    shapes: its verdict items are instance ids.

    The engine trace keeps no entries ({!Sim.Trace.create} with capacity
    0): accounting ingests every record through a hook as it happens.

    Emits [xchain_load_*] metrics into {!Obsv.Metrics.default} and, when
    span capture is on, one root span plus a span per payment. Stuck
    payments' spans are force-closed with status ["stuck"] at the run's
    stuck horizon, never exported open-ended.

    [causal] folds the run's trace into a happens-before graph (see
    {!Sim.Causal_fold}): the scheduler stamps each payment's nodes with
    its index as the trace id, anchors a root note at every arrival and a
    [Queue]-edged note at every admission, and fills [report.blame] /
    [report.blame_reports] with the critical-path decomposition of every
    committed payment. Payment spans are then linked to the DAG via their
    [trace]/[root_event] fields. Tracing adds nodes, never events: the
    schedule, and hence every other report field, is unchanged.

    [monitor] arms online runtime verification (see {!Obsv.Monitor}):
    the scheduler registers the {e same} conservation audit the report's
    [conservation_ok] runs post-hoc — per shared book, plus (routed) a
    liquidity-never-exceeded check on every edge's funder account — as
    per-dispatch checks, so the monitor's final verdict agrees with the
    report by construction. A stop-on-violation monitor ends the run at
    the first breach with status ["violation-stop"]. [sampler] records a
    sim-time series per {!Obsv.Sampler} interval: queue depth, in-flight
    and admitted payments, and per-escrow pooled funds (per-edge
    liquidity for routed workloads). [recorder] is a flight recorder, a
    bounded trace that a {!Sim.Trace.on_record} hook feeds every engine
    trace entry, so it keeps the run's last entries for a forensic bundle
    ({!Protocols.Runner.ring_json}). None of the three changes the
    schedule.

    [prof] arms the dispatch profiler (see {!Sim.Engine.create}).
    Processes are labeled by role — ["sched"] (the controller),
    ["alice"], ["chloe"], ["bob"], ["escrow"], ["aux"] (per-payment
    TMs/notaries), ["idle"] (pid-space padding), ["notary"] (the shared
    committee). On graphs the role layout is only known at admission, so
    every instance process but Alice is ["node"]. Combined with [causal],
    dispatches attribute to individual payments. Like tracing, profiling
    never changes the schedule or the report.

    A payment's block (its processes, their executor states and pools,
    its env, fold and bookkeeping arrays) outlives it: once the engine
    has dropped every process record of a retired instance, the next
    admission of the same protocol and path length resets that block in
    place and runs on it, under its own new instance id and pids
    ({!Sim.Engine.reborn}). The free blocks are the run's own, at most
    16 kept per shape; a reused block behaves byte for byte as a new
    one, which {!block_twins} lets a test check. *)

(** {2 Block reuse, for its oracle} *)

type slot_view = {
  state : string;  (** the slot's automaton state *)
  finished : bool;
  clocks_set : string list;  (** its store's set clock variables *)
  datas_set : string list;  (** its store's set data variables *)
  pending : int;  (** messages waiting in its pool *)
}
(** One executor slot of a block, as {!Anta.Executor} shows it. *)

type block_view = {
  v_payment : int;
  v_value : int;
  v_amounts : int array;
  v_held : int array;  (** the env's held deposit per escrow *)
  v_registry : Xcrypto.Auth.registry;
  v_slots : slot_view array;
  v_phase : string;  (** the shell's phase byte per slot *)
  v_buffered : (int * Protocols.Msg.t) list array;
  v_facts : Props.Payment_fold.t;
  v_deposited : int array;
  v_refunded : int array;
  v_deposits : int list array;
  v_procs : string array;  (** {!Sim.Engine.record_summary} per slot *)
  v_shared : Obj.t list;
      (** what the block shares with its shape and run: the topology,
          the parameters and the books of its path, to compare by
          identity *)
}
(** A block as an admission leaves it, before any of its processes runs:
    its data, structurally comparable, and its shared parts. *)

val block_twins :
  ?plan:Faults.Fault_plan.t ->
  workload:Workload.t ->
  seed:int ->
  unit ->
  block_view * block_view
(** [block_twins ~workload ~seed ()] runs [workload] to its end, then
    admits one more payment of its first protocol over the router's
    next path, at an instance id no payment had: once by resetting a
    retired block of that shape, as the run's own admissions do, and
    once by building a new block at the same pids. It returns the two
    views, reset first. Raises [Invalid_argument] when the run left no
    retired block of that shape. *)

val to_json : report -> string
(** Stable field order, integers and escaped strings only — byte-identical
    across runs with equal inputs {e except} the trailing ["timing"]
    member ({!Fleet.timing_json}), which reports host measurements.
    Byte-identity checks strip it first (scripts/strip_timing.py; the
    cram suite does the same with [sed]). *)

val pp_summary : Format.formatter -> report -> unit
(** Human-readable multi-line summary for the CLI. *)

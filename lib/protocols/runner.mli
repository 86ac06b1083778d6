(** Scenario assembly: wire a protocol, a network model, clocks, and faults
    into an engine run; return the trace and everything the property
    monitors need. *)

type protocol =
  | Sync_timebound
      (** Theorem 1's protocol, timeout windows derived with the actual
          drift bound *)
  | Naive_universal
      (** the same automata with drift-blind windows (derived at ρ = 0):
          the uncorrected Thomas–Schwartz universal protocol — E9's
          baseline *)
  | Htlc  (** the hashed-timelock chain baseline *)
  | Weak of Weak_protocol.config  (** Theorem 3's protocol *)
  | Atomic of Atomic_protocol.config
      (** the Interledger atomic protocol — safe but with no success
          guarantee (E11's baseline) *)

val protocol_name : protocol -> string

type network =
  | Sync  (** delays within [\[1, δ\]] *)
  | Psync of { gst : Sim.Sim_time.t }  (** partial synchrony with that GST *)
  | Async of { mean : Sim.Sim_time.t; cap : Sim.Sim_time.t }

type config = {
  hops : int;
  value : int;
  commission : int;
  delta : Sim.Sim_time.t;
  sigma : Sim.Sim_time.t;
  drift_ppm : int;  (** actual clock drift of every participant *)
  margin : Sim.Sim_time.t;
  network : network;
  adversary : Sim.Network.adversary option;
  faults : (int * Byzantine.t) list;
      (** pid → strategy substitutions, edits by {!Byzantine.deviate} *)
  fault_plan : Faults.Fault_plan.t option;
      (** environment faults — lossy links, crash–recovery schedules,
          partitions, GST jitter — interpreted deterministically from
          [seed + 47]; crashed pids are registered as non-abiding in
          [outcome.fault_names]. [None] (the default): reliable channels,
          no crashes. *)
  window_scale : (int * int) option;
      (** scale the derived a/d windows by num/den — used by E2 to build
          timeout-candidate families; [None] = as derived *)
  clock_override : (int -> Sim.Clock.t) option;
      (** exact per-pid clocks instead of seed-randomized ones — used by
          the exhaustive corner explorer (E12) to pin every clock to an
          envelope extreme *)
  causal : Obsv.Causal.t option;
      (** fold the engine trace into this happens-before graph (see
          {!Sim.Causal_fold}); [None] (the default): zero cost. The
          outcome's [paid_node] / [settled_node] anchor {!Obsv.Blame}
          walks into the recorded graph. *)
  prof : Obsv.Prof.t option;
      (** arm the dispatch profiler (see {!Sim.Engine.create});
          processes are labeled by role class (alice / chloe / bob /
          escrow / tm). [None] (the default): zero cost. *)
  monitor : Obsv.Monitor.t option;
      (** arm online runtime verification (see {!Sim.Engine.create});
          checks are registered by the [on_ready] hook. [None] (the
          default): zero cost. *)
  sampler : Obsv.Sampler.t option;
      (** arm the sim-time telemetry sampler; the probe is installed by
          the [on_ready] hook. *)
  on_ready : (outcome -> unit) option;
      (** called once, after the scenario is fully assembled and
          immediately before the engine runs, with a {e provisional}
          outcome: [env], [engine], [trace], [fault_names], [params],
          [injector] are live and final, while [status], [end_time] and
          the counters are placeholders. This is where harnesses register
          monitor checks and sampler probes over the live run state, and
          subscribe a flight recorder (a bounded {!Sim.Trace}) to [trace]
          with {!Sim.Trace.on_record}. *)
  seed : int;
  horizon : Sim.Sim_time.t option;  (** default: generous multiple of the
                                        derived parameter horizon *)
  max_events : int;
}

and outcome = {
  config : config;
  protocol : protocol;
  env : Env.t;
  params : Params.t;  (** the windows the run actually used *)
  engine : (Msg.t, Obs.t) Sim.Engine.t;
      (** the engine itself — live during [on_ready] (sampler probes read
          {!Sim.Engine.queue_depth} through it), stopped afterwards *)
  status : Sim.Engine.status;
  trace : (Msg.t, Obs.t) Sim.Trace.t;
      (** every entry of the run after {!run}; after {!run_live}, no
          entry unless span capture was on (capacity 0: its hooks saw
          every entry as it was recorded) *)
  end_time : Sim.Sim_time.t;
  message_count : int;  (** messages sent, kept in the trace or not *)
  events : int;  (** engine events dequeued; deterministic per (seed, config) *)
  fault_names : (int * string) list;
  tm_pids : int array;
      (** the pids past the payment's: its TM, notaries or validators *)
  clocks : Sim.Clock.t array;
      (** each participant's (drifting) local clock, for monitors that
          check promises stated in local time *)
  paid_node : int;
      (** causal node under which Bob's payout was released — the blame
          sink for a committed payment; [-1] when untraced or unpaid *)
  settled_node : int;
      (** causal node of Bob's termination; [-1] when untraced or Bob
          never terminated *)
  injector : Faults.Injector.t option;
      (** the fault-plan interpreter this run used, exposed for its
          per-clause activation counters ({!Faults.Injector.clause_hits});
          [None] when the config carried no (non-empty) plan *)
  conformance : int -> (unit, Anta.Conformance.deviation) result option;
      (** [conformance pid] replays the honest automaton of [pid] over this
          run's trace, against the instance the run's template ran for
          ({!Anta.Conformance.check}); [None] for a pid the protocol runs
          no automaton for (a weak committee's or chain's hand-written
          replicas), and for every pid when the trace was not kept *)
}

val default_config : hops:int -> seed:int -> config
(** value 1000, commission 10, δ 100, σ 10, drift 1%, margin 5, synchronous
    network, no adversary, no faults, 200_000 max events. *)

val process_count : hops:int -> protocol -> int
(** The pid space a fault plan for [run] addresses: the [2 * hops + 1]
    payment participants plus the protocol's TM processes. *)

val well_formed : protocol -> hops:int -> (unit, string) result
(** C's structural clause for the [hops]-escrow chain:
    {!Anta.Network_check.well_formed} over the protocol's {!template},
    the pids past its automata up to {!process_count} (a weak committee's
    or chain's hand-written replicas) as peers. It reads only the pid
    layout, so it is computed once per ([hops], {!protocol_name}) per
    process and shared by every run; safe from several domains. *)

(** {1 Compiled templates} *)

type template =
  | Template : {
      automata : ('i, Msg.t, Obs.t) Anta.Automaton.t array;
          (** pid [p]'s automaton, for the pids it covers *)
      instance : Env.t -> seed:int -> 'i;
          (** a payment's instance over its env; [seed] draws what the
              protocol adds to the env (HTLC's preimage), if anything *)
      extra : 'i -> int -> (Msg.t, Obs.t) Sim.Engine.handlers;
          (** the hand-written process an instance runs at a pid past
              [automata] and below {!process_count}: a weak committee's
              DLS notary or chain validator *)
    }
      -> template
(** A protocol as its participants' timed automata, the instance a
    payment's data makes of them, and the replicas beside them. *)

val template : protocol -> Params.t -> template
(** The one table from protocol to template, read by {!run},
    {!fault_of_string}, {!well_formed}, [Traffic.Load] and [xchain dot].
    Each template is compiled once per process and key, where the key is
    exactly what its builder reads: the a/d windows for
    {!Sync_protocol.template}, the timing input for
    {!Htlc_protocol.template}, the path length and deadline for
    {!Atomic_protocol.template}, and the path length and config for
    {!Weak_protocol.template} (a majority quorum of 3f+1 keyed as the
    f-committee it is). A compiled automaton never changes (executors
    keep their state apart, and {!Byzantine.deviate} builds new
    automata), so every run of a key shares one template, across domains
    too; a hit allocates only its key. A weak config with a
    {!Weak_protocol.Shared} committee carries a checker closure, which
    has no structural key: its template is built per call. *)

val fault_of_string :
  protocol -> hops:int -> string -> (int * Byzantine.t, string) result
(** {!Byzantine.fault_of_string} against the protocol's template for a
    [hops]-escrow chain. *)

val run : config -> protocol -> outcome
(** Validates the config first — hops >= 1, value > 0, commission >= 0,
    margin >= 0, partially-synchronous GST >= 0, and any fault plan
    well-formed for the scenario's process count — raising
    [Invalid_argument] with a descriptive message otherwise.

    Executes the payment and, after the engine stops, records telemetry in
    the process-wide {!Obsv} registries: the
    [xchain_payments_started_total] / [_committed_total] / [_aborted_total]
    counters and the [xchain_payment_latency] histogram (all labeled
    [protocol="..."]), plus one root [payment] span with per-participant
    and per-phase children in {!Obsv.Span.default} when its capture is
    on (it starts off; see {!Obsv.Span.set_capture}); spans are derived
    from the trace post-run, so they never perturb the schedule. The
    metric handles are resolved once per registry and protocol label. *)

val run_live : config -> protocol -> outcome
(** {!run} for a harness that reads the run only as it happens, through
    hooks registered by [on_ready] ({!Sim.Trace.on_record}, monitor
    checks, sampler probes): the engine keeps no trace entry, unless span
    capture is on (spans are derived from the kept entries), and the
    telemetry pass is left to the caller, who knows Bob's settlement from
    its own fold and hands it to {!record_payment}. Events, messages,
    verdicts and end time are those of {!run}; [conformance] answers
    [None] when no entry was kept. *)

val record_payment :
  outcome -> bob:(Sim.Sim_time.t * string) option -> unit
(** The telemetry pass of {!run}, given Bob's first termination (time
    and outcome tag; [None] if he never terminated): the payment counters
    and latency histogram, and the spans when their capture is on. *)

val derive_params : config -> protocol -> Params.t
(** The parameter vector [run] will use (drift-blind for
    {!Naive_universal}): derived once per process for each timing input
    and window scale, and shared; never modify it. *)

val trace_jsonl : (Msg.t, Obs.t) Sim.Trace.t -> string
(** A run's trace as {!Sim.Trace.to_jsonl} lines, messages and
    observations rendered by {!Msg.pp} and {!Obs.pp} — the format of
    [xchain pay --trace-jsonl]. *)

val ring_json : (Msg.t, Obs.t) Sim.Trace.t -> string
(** A flight recorder (a bounded trace) as {!Sim.Trace.ring_json}, its
    window entries rendered exactly as {!trace_jsonl} renders them. *)

val observations : outcome -> (Sim.Sim_time.t * int * Obs.t) list
val balance : outcome -> escrow:int -> pid:int -> int
(** Final book balance. *)

val terminated_pids : outcome -> (int * string * Sim.Sim_time.t) list
(** [(pid, outcome-tag, time)] for every Terminated observation. *)

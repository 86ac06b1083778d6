(** Chaos harness: payments under randomized environment faults.

    Each chaos run executes one payment with a {!Faults.Fault_plan.t}
    installed — lossy links, crash–recovery schedules, partitions, GST
    jitter — and checks the {e safety} subset of the Definition its
    protocol is judged by ({!Props.Payment_fold.definition}): C, CS1–CS3
    under Definition 1, C, CC, CS1w, CS2w, CS3 under Definition 2, plus
    ES and global money conservation. Liveness (T, L) is
    deliberately excluded: a fault plan is allowed to stall a payment, it
    is never allowed to lose or mint money. A stalled run is classified,
    not failed.

    The soak sweeps hundreds of random plans across seeds. Every run is a
    pure function of [(seed, plan)], so each reported violation carries a
    one-line repro ([xchain chaos --seed … --plan '…']) that replays it
    bit-for-bit. *)

type classification =
  | Safe_commit  (** Bob was paid; safety held *)
  | Safe_abort
      (** Bob unpaid, every non-faulted customer terminated; safety held *)
  | Stuck
      (** some non-faulted customer never terminated — liveness lost to
          the faults (expected under drops and partitions), safety held *)
  | Safety_violation  (** an applicable safety property failed *)

val classification_name : classification -> string
(** ["safe-commit"], ["safe-abort"], ["stuck"], ["safety-violation"]. *)

type run_result = {
  seed : int;
  hops : int;
  protocol : Protocols.Proto.t;
  plan : Faults.Fault_plan.t;
  faults : (int * Protocols.Byzantine.t) list;
      (** Byzantine strategy substitutions the run carried ([[]] for a
          plain environment-fault run) *)
  classification : classification;
  failures : Props.Verdict.t list;
      (** the failed verdicts; non-empty iff [Safety_violation] *)
  status : Sim.Engine.status;
  end_time : Sim.Sim_time.t;
  events : int;  (** engine events this run dequeued (deterministic) *)
  paid_node : int;
      (** causal blame sink (Bob's payout), [-1] when untraced/unpaid *)
  settled_node : int;  (** causal node of Bob's termination, or [-1] *)
  fired : int array;
      (** per-clause activation counts in {!Faults.Fault_plan.clause_count}
          order (see {!Faults.Injector.clause_hits}); [[||]] when the run
          carried no plan *)
  injected : int array;
      (** injection totals [[| drops; dups; corruptions; partition
          suppressions |]] ({!Faults.Injector.kind_counts}) *)
  breach_at : int;
      (** sim-time the online monitor first tripped, [-1] when the run
          was unmonitored or nothing tripped. With [--stop-on-violation]
          the run's [end_time] equals this breach time. *)
}

val run_one :
  ?hops:int ->
  ?protocol:Protocols.Proto.t ->
  ?causal:Obsv.Causal.t ->
  ?prof:Obsv.Prof.t ->
  ?monitor:Obsv.Monitor.t ->
  ?sampler:Obsv.Sampler.t ->
  ?recorder:(Protocols.Msg.t, Protocols.Obs.t) Sim.Trace.t ->
  ?faults:(int * Protocols.Byzantine.t) list ->
  plan:Faults.Fault_plan.t ->
  seed:int ->
  unit ->
  run_result
(** One payment (default: 2 hops, {!Protocols.Proto.Sync},
    synchronous network) under [plan], classified. [causal] records the
    run's happens-before graph (see {!Protocols.Runner}) and fills
    [paid_node] / [settled_node]; [prof] profiles the run's dispatches
    ({!Obsv.Prof}). Neither changes the schedule.

    [monitor] arms online verification of the safety subset on every
    dispatch, O(pids) each over {!Props.Payment_props.live_view}, so its
    final verdict agrees with the post-hoc one by construction (filling
    [breach_at]); a stop-on-violation monitor ends the
    run at the first breach with status [Violation_stop]. [sampler]
    records a sim-time series (queue depth plus per-escrow pooled
    funds); [recorder], a flight recorder for {!bundle}, is a bounded
    trace subscribed to the run's trace ({!Sim.Trace.on_record}), so it
    keeps the run's last entries.
    [faults] substitutes Byzantine strategies, exactly like
    [xchain audit --fault]; repro lines include them. *)

val repro :
  hops:int ->
  protocol:Protocols.Proto.t ->
  ?faults:(int * Protocols.Byzantine.t) list ->
  seed:int ->
  Faults.Fault_plan.t ->
  string
(** [xchain chaos -p PROTO --hops H --seed N --plan 'P' [--fault S@R]…]:
    the command line that replays that run. [PROTO] is
    {!Protocols.Proto.name}, each [S@R] {!Protocols.Byzantine.fault_to_string}:
    the spellings [xchain chaos] parses. *)

val repro_line : run_result -> string
(** {!repro} of the run: replays it exactly. *)

val bundle :
  monitor:Obsv.Monitor.t ->
  recorder:(Protocols.Msg.t, Protocols.Obs.t) Sim.Trace.t ->
  run_result ->
  string
(** The forensic bundle for a failed run ({!Obsv.Monitor.bundle_json}):
    first-breach property/detail/sim-time from the monitor (reason
    ["violation"]), or reason ["stuck"] at [end_time] when nothing
    tripped; the recorder's window ({!Protocols.Runner.ring_json}); a
    per-run metrics snapshot; and the one-line repro. Deterministic —
    replaying the repro with the same sinks reproduces the bundle byte
    for byte. *)

val replay_bundle :
  ?hops:int ->
  ?protocol:Protocols.Proto.t ->
  plan:Faults.Fault_plan.t ->
  seed:int ->
  unit ->
  string
(** Replay one run of a sweep (its [(seed, plan)] determines it) under a
    fresh monitor and a 256-entry flight recorder, and return its
    {!bundle}: how the soak and the hunt ship their first violation. *)

type summary = {
  runs : int;
  commits : int;
  aborts : int;
  stuck : int;
  violations : run_result list;
  events : int;  (** engine events across all runs (deterministic) *)
  cost : Fleet.cost;  (** the batch's — nondeterministic, keep out of
                          byte-compared output *)
}

type health = {
  h_done : int;
  h_total : int;
  h_commits : int;
  h_aborts : int;
  h_stuck : int;
  h_violations : int;
}
(** A live mid-soak snapshot of the outcome taxonomy, for tty health
    lines. Counts are read from cross-domain atomics, so [h_done] may
    trail the sum of the four outcome counters by in-flight jobs. *)

val soak :
  ?hops:int ->
  ?protocol:Protocols.Proto.t ->
  ?runs:int ->
  ?domains:int ->
  ?prof:Obsv.Prof.t ->
  ?monitor:bool ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  ?on_health:(health -> unit) ->
  seed:int ->
  unit ->
  summary
(** [runs] (default 200) chaos runs: run [i] uses seed [seed + i] and a
    random plan derived from that seed alone, so any single run replays
    from its repro line without re-running the sweep.

    Runs are sharded over [?domains] OCaml domains (default
    {!Fleet.default_domains}); every field of the summary except
    [cost] is byte-identical for any domain count.
    [?on_progress] reports completed runs from the calling domain.

    A soak keeps the full {!run_result} of its violating runs only: every
    other run is counted into the summary's totals and dropped, so its
    memory follows the violations, not [runs].

    [prof] profiles every run's dispatches into one accumulator set; a
    profiled soak forces [domains = 1] (the profiler is single-threaded
    mutable state), so profile a smaller [runs] count when wall time
    matters.

    [monitor] (default false) arms a fresh online monitor inside every
    job, so each violating run's [breach_at] carries the exact sim-time
    of first breach; the monitors never stop runs, so the summary stays
    byte-identical to an unmonitored soak. [on_health] receives a live
    taxonomy snapshot at every progress callback. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line of counts, then a repro line per violation. Never prints
    timing, so transcripts stay deterministic. *)

val summary_to_json :
  ?hops:int ->
  ?protocol:Protocols.Proto.t ->
  seed:int ->
  summary ->
  string
(** The soak as one JSON object. Every member except the trailing
    ["timing"] block ({!Fleet.timing_json}) is deterministic; strip that
    block (scripts/strip_timing.py) before byte-comparing reports across
    domain counts. *)

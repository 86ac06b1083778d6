(** Deterministic discrete-event engine.

    Processes are event handlers over private mutable state (captured in the
    handler closures). The engine owns global time, each process owns a
    drifting local {!Clock}. Handlers can only read their {e local} clock —
    protocols are thereby forced to honour the paper's model, in which no
    participant sees real time.

    Execution is a deterministic function of (root RNG seed, network model,
    adversary, process set): the event queue breaks timestamp ties by
    insertion order and all randomness flows from seeded {!Rng} streams.

    The engine records a run as its {!trace} plus telemetry counters;
    analyses such as the happens-before graph fold the trace through
    {!Trace.on_record}, following the links its entries carry. *)

type ('msg, 'obs) ctx
(** Capabilities handed to a process while it is handling an event. *)

val pid : ('msg, 'obs) ctx -> int
(** The process's {e logical} pid: its engine pid minus the [base] offset
    it was registered with (so a multiplexed process sees the same pid
    layout as a standalone one). *)

val local_now : ('msg, 'obs) ctx -> Sim_time.t
(** The process's own clock reading — the only notion of time a protocol may
    use. *)

val send : ('msg, 'obs) ctx -> dst:int -> 'msg -> unit
(** Queue a message. It incurs a computation delay in [\[0, sigma\]] plus a
    network delay chosen by the network model / adversary. [dst] is a
    logical pid: the sender's [base] offset is added before resolution. *)

val send_absolute : ('msg, 'obs) ctx -> dst:int -> 'msg -> unit
(** Like {!send} but [dst] is an engine pid, ignoring the sender's [base].
    Control-plane escape hatch for multiplexer wrappers that must reach
    processes outside their own block (e.g. a load scheduler at pid 0). *)

val set_timer : ('msg, 'obs) ctx -> deadline:Sim_time.t -> label:string -> unit
(** Arm (or re-arm) the timer [label] to fire when the process's local clock
    reaches [deadline] (the paper's [now >= u + a] guard). Setting a timer
    with the same label replaces the previous one: its queued firing is
    taken out of the event queue, so a label never has more than one. An
    infinite deadline just disarms the label. The new firing takes a fresh
    place in the queue's (time, insertion) order, as a first arming at this
    instant would. *)

val set_timer_after :
  ('msg, 'obs) ctx -> after:Sim_time.t -> label:string -> unit
(** [set_timer_after ctx ~after] = [set_timer ~deadline:(local_now + after)]. *)

val cancel_timer : ('msg, 'obs) ctx -> label:string -> unit
(** Disarm [label]: its queued firing leaves the event queue at once, in
    O(log n), so it is never dequeued and holds no memory until its
    deadline. A no-op when [label] is not armed. *)

val observe : ('msg, 'obs) ctx -> 'obs -> unit
(** Emit a domain observation into the trace (value moved, certificate
    issued, terminated, …). *)

val halt : ('msg, 'obs) ctx -> unit
(** Stop reacting to all future events (crash / graceful exit). *)

val halted : ('msg, 'obs) ctx -> bool
(** Whether the calling process has halted ({!is_halted} on its own pid,
    without a pid lookup). *)

val set_timer_series :
  ('msg, 'obs) ctx ->
  deadlines:Sim_time.t Seq.t ->
  label:(int -> string) ->
  unit
(** [set_timer_series ctx ~deadlines ~label] arms one timer per element of
    [deadlines] (local deadlines, in non-decreasing order), the [k]-th
    under [label k]. It records the same trace entries and telemetry as
    that many {!set_timer} calls, and its timers fire in the same order
    relative to every other event, but only the next timer of the series
    waits in the queue: a series of any length costs O(1) memory. The
    [Timer_set] entries of one series are consecutive in the trace, so
    member [k]'s firing links to the [k]-th of them. [deadlines] is
    traversed twice, once now and once as the timers come due, so it must
    be persistent. Series timers live outside the label table:
    {!cancel_timer} and {!set_timer} never touch them. {!queue_depth}
    counts them all. *)

type ('msg, 'obs) handlers = {
  on_start : ('msg, 'obs) ctx -> unit;
  on_receive : ('msg, 'obs) ctx -> src:int -> 'msg -> unit;
  on_timer : ('msg, 'obs) ctx -> label:string -> unit;
}

val silent : ('msg, 'obs) handlers
(** A process that does nothing — useful as a crash-from-start fault. *)

type ('msg, 'obs) t

val create :
  tag_of:('msg -> string) ->
  ?mangle:('msg -> Rng.t -> 'msg option) ->
  network:Network.t ->
  ?sigma:Sim_time.t ->
  ?metrics:Obsv.Metrics.t ->
  ?trace_capacity:int ->
  ?prof:Obsv.Prof.t ->
  ?monitor:Obsv.Monitor.t ->
  ?sampler:Obsv.Sampler.t ->
  seed:int ->
  unit ->
  ('msg, 'obs) t
(** [tag_of] labels messages for traces and for the adversary; [sigma] is the
    computation-time bound (default 0: instantaneous computation).

    [mangle] materialises in-flight corruption when the network's tamper
    hook marks a copy {!Network.Corrupted}: it receives the original
    message and the sender's random stream and returns the damaged payload,
    or [None] to discard the copy. Without a mangler, corrupted copies are
    discarded (authenticated channels: garbage fails verification at the
    receiver), counted in [xchain_corrupt_copies_dropped_total].

    [trace_capacity] bounds the engine trace as a ring buffer (see
    {!Trace.create}); [0] keeps no entries, for runs whose consumers all
    read the trace through {!Trace.on_record} hooks; omitted, the trace is
    unbounded as before.

    [metrics] (default {!Obsv.Metrics.default}) receives the engine's
    telemetry: [xchain_events_total], [xchain_messages_sent_total],
    [xchain_messages_delivered_total], [xchain_timers_set_total],
    [xchain_timers_fired_total], [xchain_timers_stale_total], the
    [xchain_event_queue_depth] gauge, and the fault-injection families
    [xchain_crashes_total], [xchain_recoveries_total], [xchain_procs_down],
    [xchain_deliveries_dropped_down_total], [xchain_timers_deferred_total]
    and [xchain_corrupt_copies_dropped_total]. Handles are resolved here,
    once; the per-event updates allocate nothing.

    Deliveries dropped at a down process and stale firings record no
    trace entry.

    [prof] (default: absent — the off-path cost is one [match] per
    dispatched event, zero allocation) arms the {!Obsv.Prof} hot-path
    profiler: every dequeued event is bracketed with host-clock and
    [Gc.minor_words] reads, and the deltas are charged to the
    (payment {!trace_tag}, process label, event kind) dispatch site; the
    queue depth is sampled into [xchain_prof_queue_depth] at each dequeue.

    [monitor] / [sampler] (default: absent — together one [option] match
    per dispatched event, zero allocation) arm runtime verification:
    after every dispatch the engine advances the {!Obsv.Sampler} at the
    current sim-time and evaluates the {!Obsv.Monitor}'s checks. A
    stop-on-violation monitor that trips ends the run with
    {!Violation_stop} at the exact sim-time of first breach; otherwise
    the monitor is finalized at the run's end time so its verdict set
    reflects the final state. A forensic flight recorder is not an engine
    option: it is a bounded {!Trace} fed from {!trace} by a
    {!Trace.on_record} hook. *)

val add_process :
  ('msg, 'obs) t ->
  ?clock:Clock.t ->
  ?base:int ->
  ?label:string ->
  ?pid:int ->
  ('msg, 'obs) handlers ->
  int
(** Registers a process and returns its pid: [pid] when given (it must be
    free), else one past the highest pid so far, so plain calls number
    processes consecutively from 0. A process may be born at any time:
    one added before {!run} starts there (its [on_start] runs at time 0,
    in pid order), one added during a run starts at once ([on_start] runs
    before [add_process] returns). Either way pid [k] draws the same
    random stream, [Rng.split_nth root k] of the engine's seed, for its
    computation delays and the [mangle] hook, derived when it first
    draws. A pid crashed before its process is born ({!schedule_crash})
    is born down. A birth allocates only the process record: its timer
    table, stream and crash state come with its first arming, draw and
    crash.

    [label] (default ["proc"]) names the process's {e role} for the
    profiler — a low-cardinality string like ["alice"] or ["escrow"],
    interned once here ({!Obsv.Prof.intern}), never per event. Ignored
    (and not computed into an id) when the engine has no [prof].

    [base] (default 0) rebases the process's view of the pid space:
    {!send} adds [base] to its destination, {!pid} subtracts it, and a
    delivery's [~src] is reported relative to the {e receiver}'s [base].
    Registering one block of processes per payment at [base = k * stride]
    lets handler code written for a single payment's logical pids 0..m-1
    run unchanged many times within one engine; traces and crash
    scheduling always use engine pids. *)

(** {2 Reusing a process record}

    A multiplexer that births a block of processes per payment and
    retires it again can give a later block the records of an earlier
    one, so the steady state writes into records that are already in the
    major heap instead of allocating new ones. *)

val record : ('msg, 'obs) t -> int -> ('msg, 'obs) ctx
(** [record t pid] is [pid]'s process record, to be re-registered by
    {!reborn} once it is {!spent}. Raises [Invalid_argument] when [pid]
    has no record. *)

val spent : ('msg, 'obs) ctx -> bool
(** The record is retired and nothing queued refers to it: the engine has
    dropped it ({!retire}), and {!reborn} may take it. *)

val reborn :
  ('msg, 'obs) t ->
  ('msg, 'obs) ctx ->
  ?clock:Clock.t ->
  ?base:int ->
  ?label:string ->
  pid:int ->
  ('msg, 'obs) handlers ->
  unit
(** [reborn t p ~pid handlers] re-registers the {!spent} record [p] as a
    new process at [pid], exactly as {!add_process} with the same
    arguments would birth one: its handlers, clock, base and role label
    are the given ones, its stream is [pid]'s and not yet derived, it is
    neither halted nor retired, nothing is queued for it and no timer is
    armed (its label table is emptied in place, keeping its buckets), and
    its crash state is the one a pid crashed before its birth has, or
    the shared never-crashed placeholder. It allocates nothing beyond
    what a birth registers in the pid table. [pid] must be free, like
    any birth's; the engine never hands out a pid twice, so a reused
    record always carries a new pid, and the old pid stays dropped.
    Raises [Invalid_argument] when [p] is not spent or belongs to
    another engine. *)

val record_summary : ('msg, 'obs) ctx -> string
(** A one-line account of a record's state: pid, base, whether its clock
    is the perfect one, whether its stream was derived, its armed labels,
    halted, crash state, queue counters and retired. Two records that a
    birth and a {!reborn} at the same pid made print the same. *)

val reserve_pids : ('msg, 'obs) t -> int -> unit
(** [reserve_pids t n] makes pids below [n] addressable before their
    processes are born, so {!schedule_crash} can target them. *)

(** {2 Process retirement}

    A multiplexer that births processes during a run (see {!add_process})
    can also end them, so the engine's memory follows the processes that
    can still act rather than every process the run ever had. *)

val quiet : ('msg, 'obs) t -> int -> bool
(** [quiet t pid] holds when [pid]'s process cannot act again unless it is
    sent a new message: it has halted, or no delivery is queued for it and
    it has no armed timer. A cancelled or replaced timer is not armed: its
    firing has left the queue. *)

val retire : ('msg, 'obs) t -> int -> unit
(** [retire t pid] ends [pid]'s life: no handler of it may run again. The
    events still queued for it play out as before, byte for byte: a
    delivery records its [Delivered] entry (or counts as dropped while the
    pid is down), a firing counts as stale, and crashes and recoveries take
    effect. An event that would run one of its handlers raises
    [Invalid_argument]. Once nothing is queued for it the engine drops its
    record and keeps only a down state; sending to it is then an error. A
    quiet process that has not halted has nothing queued (its cancelled
    timers left the queue when cancelled), so its record goes at once; a
    halted one's record goes when its last queued event pops. Retire a
    process once it is {!quiet} and nothing outside will send to it
    again. *)

type status =
  | Quiescent  (** no events left — the system reached a fixpoint *)
  | Horizon_reached  (** stopped at the time horizon with events pending *)
  | Event_limit  (** stopped by the event-count safety valve *)
  | Violation_stop
      (** a stop-on-violation monitor tripped: the run ended at the
          sim-time of first safety breach ({!Obsv.Monitor.breach_at}) *)

val status_name : status -> string
(** ["quiescent"], ["horizon"], ["event-limit"] or ["violation-stop"]. *)

val run :
  ?horizon:Sim_time.t -> ?max_events:int -> ('msg, 'obs) t -> status
(** Executes [on_start] for every process added so far (in pid order, at
    time 0), then
    processes events in timestamp order until quiescence, the horizon
    (default {!Sim_time.infinity}), or [max_events] (default 1_000_000). *)

val trace : ('msg, 'obs) t -> ('msg, 'obs) Trace.t
val now : ('msg, 'obs) t -> Sim_time.t

val queue_depth : ('msg, 'obs) t -> int
(** Events currently pending, series timers not yet queued included — the
    natural first column of a {!Obsv.Sampler} probe. *)

val events_processed : ('msg, 'obs) t -> int
(** Events dequeued over this engine's lifetime (across {!run} calls).
    Deterministic for a fixed (seed, configuration) — the per-run basis
    of the engine-events/sec throughput in load and chaos reports. *)

val trace_tag : ('msg, 'obs) t -> int
(** The payment tag of the event being dispatched, which the profiler
    charges: [-1] unless a trace fold sets it (the happens-before fold
    does, from the entry a delivery or firing descends from). *)

val set_trace_tag : ('msg, 'obs) t -> int -> unit

val clock_of : ('msg, 'obs) t -> int -> Clock.t
val is_halted : ('msg, 'obs) t -> int -> bool

val set_clock : ('msg, 'obs) t -> pid:int -> Clock.t -> unit
(** Replace a process's clock. Meant for multiplexers that defer a
    process's start and re-anchor its local time epoch at the actual start
    instant (so absolute local deadlines like the paper's a{_i}/d{_i}
    windows count from the payment's own beginning). Must be called before
    the process arms any timer: already-armed timers keep the global fire
    times computed under the old clock. *)

(** {2 Crash–recovery fault injection}

    A {e down} process is a crashed host: deliveries addressed to it are
    discarded (never replayed), and its armed timers do not fire while it
    is down. If a recovery is scheduled, timer firings swallowed by the
    outage are re-checked at the reboot instant — deadlines live in the
    automaton's persisted store ({!Anta.Store}), so a recovered process
    takes its expired-deadline branches immediately and resumes from the
    exact control state it crashed in (handler closures, including the
    store, survive the outage; only in-flight events are lost). *)

val schedule_crash :
  ('msg, 'obs) t -> pid:int -> at:Sim_time.t -> ?recover_at:Sim_time.t ->
  ?label:string -> unit -> unit
(** Schedule [pid] to go down at global time [at] and (optionally) reboot
    at [recover_at]. Must be called before {!run}, for a pid that has a
    process or lies below {!reserve_pids}; [recover_at], when given, must
    be strictly after [at]. A crash and recovery of a pid whose process is
    not born yet, or is retired, still record their trace entries and
    telemetry; the profiler then charges them to [label] (default
    ["proc"]), the role the pid's process has or will have. *)

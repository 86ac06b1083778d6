(** Hierarchical spans over simulated time.

    A span is a named interval [\[start, end\]] in simulation ticks, with an
    optional parent link — the usual tracing model, except the clock is the
    engine's deterministic sim clock, so two runs with the same seed emit
    identical spans. The runners emit one {e root} span per payment / deal
    (init through commit or abort) with per-participant and per-phase child
    spans underneath.

    Spans accumulate in a collector; {!to_jsonl} dumps them one JSON object
    per line for external tooling. Capture can be switched on and off (see
    {!set_capture}): a disabled collector records nothing and {!start}
    returns a dummy span. {!default} starts disabled, so a library caller
    pays for spans only once it asks for them (the CLI arms it for
    [--spans-out]).

    Domain-safety: appending to a collector ({!start}) is serialized on an
    internal lock, so parallel fleet jobs recording into {!default} cannot
    corrupt it. Span {e ids} are allocation-ordered, hence nondeterministic
    under parallelism — deterministic span dumps require a single-domain
    run, which is why the CLI rejects [--spans-out] combined with [-j > 1].
    {!finish} takes no lock: a span is finished only by the domain that
    started it. Reading ({!to_jsonl}) is safe once the batch has been
    joined. *)

type t
(** A span collector. *)

type span

val create : unit -> t

val default : t
(** The process-wide collector, used by the runners unless handed an
    explicit one. It starts with capture off. *)

val set_capture : t -> bool -> unit
(** Enable or disable recording (default: enabled for a collector from
    {!create}, disabled for {!default}). *)

val capture : t -> bool

val start :
  t ->
  ?parent:span ->
  ?attrs:(string * string) list ->
  ?trace_id:int ->
  ?root_event:int ->
  name:string ->
  at:int ->
  unit ->
  span
(** Opens a span at sim-time [at]. The result is recorded in the collector
    (unless capture is off) and stays [running] until {!finish}.

    [trace_id] and [root_event] link the span to a {!Causal} graph: the
    trace id groups it with the causal nodes of the same payment, and
    [root_event] is the causal node id the span hangs off (its root
    event), so {!to_jsonl} rows can be joined against the DAG export by
    id. Unset (the default, or any negative value), the fields are
    omitted from the export entirely. *)

val finish : ?status:string -> at:int -> span -> unit
(** Closes the span at sim-time [at] with a status (conventionally
    ["ok"], ["commit"], ["abort"], ["error"]; default ["ok"]). Finishing a
    finished span, or finishing before the start time, raises
    [Invalid_argument]. *)

val clear : t -> unit
(** Drop every span and restart ids at 0. *)

(** {1 Reading} *)

val to_jsonl : t -> string
(** One JSON object per span, in start order:
    [{"id":0,"parent":null,"name":"payment","start":0,"end":467,
      "status":"commit","attrs":{"protocol":"sync-timebound"}}].
    A still-running span exports ["end":null] and status ["running"]. *)

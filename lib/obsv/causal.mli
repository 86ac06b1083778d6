(** Happens-before graphs over engine events.

    A causal recorder accumulates one {e node} per engine event (send,
    deliver, timer arm, timer fire, crash, recover, plus [Note] nodes
    injected by upper layers such as the load scheduler's admission
    points) and {e edges} for the four happens-before relations of the
    simulator:

    - [Program]: the previous event on the same engine pid;
    - [Message]: a send to each of its deliveries ({!Sim.Network} transit);
    - [Timer]: a timer arm to its live firing ({!Sim.Event_queue} wait);
    - [Queue]: an explicit happens-after injected with a [Note] (e.g.
      "this admission waited on that arrival");
    - [Outage]: crash → recover → any firing deferred by the outage
      ({!Faults} downtime).

    Edges may only point from an earlier-recorded node to a later one
    ({!add_edge} enforces [src < dst]), so the graph is acyclic {e by
    construction} and node ids are a topological order. Node times are
    global sim-ticks and non-decreasing in id, which is what lets
    {!Blame} decompose any root→sink path into non-negative gaps that
    telescope exactly to the end-to-end latency.

    Like the rest of [lib/obsv], this module is plain integers and
    strings — no dependency on [lib/sim]. A run's graph is a fold of its
    engine trace ({!Sim.Causal_fold}), which also takes upper layers'
    [Note]s. Recording is deterministic: the same seeded run produces the
    same graph, so both exporters are byte-identical across reruns. *)

type kind = Send | Deliver | Timer_set | Timer_fire | Crash | Recover | Note

type edge_kind = Program | Message | Timer | Queue | Outage

val kind_name : kind -> string
(** ["send"], ["deliver"], ["timer_set"], ["timer_fire"], ["crash"],
    ["recover"], ["note"]. *)

type t

val create : unit -> t

val record :
  t -> kind:kind -> pid:int -> at:int -> ?trace:int -> label:string -> unit ->
  int
(** Appends a node and returns its id (consecutive from 0). [trace] is an
    opaque grouping id — load runs use the payment index — defaulting to
    [-1] (unassigned). Raises [Invalid_argument] on negative [at]. *)

val add_edge : t -> kind:edge_kind -> src:int -> dst:int -> unit
(** Adds a happens-before edge. Raises [Invalid_argument] unless
    [0 <= src < dst < node_count] — edges only point forward, which keeps
    the graph acyclic by construction. *)

(** {1 Reading} *)

val node_count : t -> int
val kind_of : t -> int -> kind
val pid_of : t -> int -> int
val time_of : t -> int -> int
val trace_of : t -> int -> int
val label_of : t -> int -> string

val preds : t -> int -> (edge_kind * int) list
(** Incoming edges of a node as [(kind, src)], in insertion order. *)

val edge_count : t -> int

(** {1 Exporters} *)

val to_jsonl : t -> string
(** One JSON object per node, in id order, with its incoming edges
    embedded:
    [{"id":4,"kind":"deliver","pid":3,"t":117,"trace":0,"label":"chi",
      "preds":[{"kind":"message","src":2},{"kind":"program","src":3}]}].
    Join against span dumps via the span's [root_event] attribute. *)

val to_chrome : ?payments:(string * int * int * int * string) list -> t ->
  string
(** Chrome trace-event JSON (one object: [{"traceEvents":[...],
    "displayTimeUnit":"ms"}]) loadable in [chrome://tracing] or Perfetto.
    Every node becomes an instant event on track [tid = pid] (process 0,
    "engine"), every [Message] edge a flow-event pair, and each optional
    [payments] entry [(name, track, start, end_, status)] a complete
    ["X"] slice on process 1 ("payments"). Ticks are exported as
    microseconds. Deterministic: byte-identical for identical graphs. *)

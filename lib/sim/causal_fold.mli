(** The happens-before graph of a run, as a fold of its engine trace.

    Every entry but [Observed] and [Halted] appends one {!Obsv.Causal}
    node on its pid, after the pid's previous node ([Program] edge). A
    [Delivered] gets a [Message] edge from the [Sent] it names, a
    [Timer_fired] a [Timer] edge from its [Timer_set] (plus an [Outage]
    edge from the owner's reboot when deferred), a [Recovered] an
    [Outage] edge from its crash. Dropped copies and stale firings record
    no entry, so every deliver node has exactly one [Message] predecessor.

    Sends and arms carry the engine's {!Engine.trace_tag}; a delivery or
    firing takes its origin's, so a payment's tag rides along its
    messages and timers (and the profiler charges it). *)

type ('msg, 'obs) t

val attach : ('msg, 'obs) Engine.t -> Obsv.Causal.t -> ('msg, 'obs) t
(** Subscribe the graph to the engine's trace. Attach right after
    {!Engine.create}, before any hook that reads {!current_node} (hooks
    run in registration order). Raises [Invalid_argument] once the trace
    has an entry: links into the missing prefix could not resolve. *)

val current_node : ('msg, 'obs) t -> int
(** The latest node made, [-1] before the first. In a hook on an
    [Observed] entry: the delivery or firing whose handler emitted it, or
    that handler's latest send or arm. *)

val note :
  ('msg, 'obs) t -> pid:int -> ?after:int -> ?trace:int -> label:string ->
  unit -> int
(** Append an application-level [Note] on engine pid [pid] at the current
    time and return its id. [after] (a node id) adds a [Queue] edge,
    which {!Obsv.Blame} charges as queueing; [trace] (default: the
    current tag) stamps the note and becomes the tag that later sends
    and arms inherit. *)

(** Structured execution traces.

    Every engine run produces a trace: the totally ordered list of events
    that occurred, with global timestamps. Property monitors (library
    [props]) are pure functions over traces, so correctness checking is
    decoupled from execution.

    ['msg] is the protocol's wire-message type; ['obs] is the protocol's
    observation type — domain events such as "value moved" or "certificate
    issued" that processes emit explicitly via their context.

    The trace links itself by {e sequence number} (an entry's 0-based
    position, evicted entries included): [Delivered] names its [Sent],
    [Timer_fired] its [Timer_set], so {!Causal_fold} rebuilds the
    happens-before graph from the entries alone. The printers omit the
    links. *)

type ('msg, 'obs) entry =
  | Sent of { t : Sim_time.t; src : int; dst : int; tag : string; msg : 'msg }
  | Delivered of {
      t : Sim_time.t;
      sent_at : Sim_time.t;
      src : int;
      dst : int;
      tag : string;
      msg : 'msg;
      sent_seq : int;  (** sequence number of the [Sent] entry *)
    }
  | Timer_set of {
      t : Sim_time.t;
      owner : int;
      label : string;
      local_deadline : Sim_time.t;
      global_fire : Sim_time.t;
    }
  | Timer_fired of {
      t : Sim_time.t;
      owner : int;
      label : string;
      set_seq : int;  (** sequence number of the arming [Timer_set] *)
      deferred : bool;  (** held past the deadline until the owner's reboot *)
    }
  | Observed of { t : Sim_time.t; pid : int; obs : 'obs }
  | Halted of { t : Sim_time.t; pid : int }
  | Crashed of { t : Sim_time.t; pid : int; recover_at : Sim_time.t option }
      (** Fault injection took the process down; [recover_at] is the
          scheduled reboot time, if any. *)
  | Recovered of { t : Sim_time.t; pid : int }

type ('msg, 'obs) t

val create : ?capacity:int -> unit -> ('msg, 'obs) t
(** Without [capacity] (the default) the trace keeps every entry, as it
    always has. With [capacity] it becomes a ring buffer holding the most
    recent [capacity] entries: recording past the cap silently evicts the
    oldest entry, counted as dropped. Bounded traces keep memory
    flat on multi-thousand-payment load runs; combine with {!on_record}
    when an analysis must see every entry as it happens. [capacity = 0]
    keeps no entry at all: the hooks and {!length} still see every
    record, which is all a hook-fed consumer needs. Raises
    [Invalid_argument] if [capacity < 0]. *)

val record : ('msg, 'obs) t -> ('msg, 'obs) entry -> unit

val on_record : ('msg, 'obs) t -> (('msg, 'obs) entry -> unit) -> unit
(** Register a hook called synchronously on every {!record}, before the
    entry is stored (and regardless of whether the ring later evicts it).
    Hooks run in registration order; they must not record into the same
    trace. This is how load accounting observes a run incrementally
    without requiring an unbounded trace. *)

val to_list : ('msg, 'obs) t -> ('msg, 'obs) entry list
(** Entries in chronological order. For a bounded trace, only the kept
    window (the most recent [capacity] entries). *)

val length : ('msg, 'obs) t -> int
(** Total entries recorded, including any evicted from a bounded trace. *)

val observations : ('msg, 'obs) t -> (Sim_time.t * int * 'obs) list
(** Just the [Observed] entries, in order, as [(time, pid, obs)]. *)

val message_count : ('msg, 'obs) t -> int
(** Number of [Sent] entries recorded, including any evicted from a
    bounded trace: a run's message count at any capacity. *)

val last_time : ('msg, 'obs) t -> Sim_time.t
(** Timestamp of the final entry, or {!Sim_time.zero} for an empty trace. *)

val pp :
  msg:(Format.formatter -> 'msg -> unit) ->
  obs:(Format.formatter -> 'obs -> unit) ->
  Format.formatter ->
  ('msg, 'obs) t ->
  unit

val to_jsonl :
  msg:('msg -> string) ->
  obs:('obs -> string) ->
  ('msg, 'obs) t ->
  string
(** One JSON object per line, chronological: machine-readable export for
    external analysis. The [msg]/[obs] serializers render payloads as
    plain strings (escaped into the JSON); structural fields (kind, time,
    endpoints, tags, labels) are first-class JSON fields. Every line
    carries a ["seq"] field — the entry's 0-based position in the trace —
    so consumers can re-establish total order after filtering or merging
    (timestamps alone tie on same-tick events). A bounded trace prints
    only its kept window, numbered from its dropped count. *)

val ring_json :
  msg:('msg -> string) ->
  obs:('obs -> string) ->
  ('msg, 'obs) t ->
  string
(** The trace as one JSON object,
    [{"capacity":C,"recorded":N,"dropped":D,"window":[...]}]: [capacity]
    is the bound ([null] when unbounded), [recorded] is {!length},
    [dropped] counts the entries recorded but not kept (all of them at
    capacity 0; 0 when unbounded), and [window] holds the kept entries as
    the same objects {!to_jsonl} prints, with the same [seq] numbering.
    This is the flight-recorder view a forensic bundle embeds. *)

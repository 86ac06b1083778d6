(** Online runtime verification over a live engine run.

    A monitor holds named safety checks — closures over the run's own
    mutable state (ledger books, the trace) that return [Some detail]
    while their property is violated and [None] while it holds. The
    engine calls {!step} after every dispatched event, so a breach is
    detected at the exact sim-time it first occurs, not at the end of the
    run.

    Two kinds of verdict come out of one monitor:

    - {!violations} is the {e current} violated set: a property that
      recovers (its check returns [None] again) leaves the set. Because
      the registered closures are the post-hoc predicates evaluated over
      the same final state, the set after {!finalize} agrees with the
      post-hoc safety report by construction.
    - {!first_trip} is the {e historical} first breach — never reset —
      which drives [--stop-on-violation] and stamps the forensic bundle
      ({!bundle_json}) with the sim-time of first violation.

    Zero cost when off, in the {!Prof} style: an engine without a monitor
    pays one [option] match per event and allocates nothing. *)

type t

type trip = { property : string; detail : string; at : int }

val create : ?stop_on_violation:bool -> unit -> t
(** [stop_on_violation] makes {!should_stop} turn true at the first trip,
    which the engine maps to the [Violation_stop] exit status. *)

val register : t -> name:string -> (unit -> string option) -> unit
(** Add a named check. Closures run in registration order on every
    {!step}; they must be pure reads of run state (never mutate the
    schedule). *)

val step : t -> at:int -> unit
(** Evaluate every check at sim-time [at]: called by the engine after
    each dispatched event. *)

val finalize : t -> at:int -> unit
(** One last {!step} at the run's end time, so {!violations} reflects the
    final state even when the last dispatched event predated quiescence. *)

val violations : t -> trip list
(** Currently-violated properties, registration order; each carries the
    sim-time it {e entered} the violated set. *)

val first_trip : t -> trip option
(** The historical first breach, never reset by recovery. *)

val breach_at : t -> int
(** [first_trip]'s sim-time, or [-1] when nothing ever tripped. *)

val should_stop : t -> bool
val steps : t -> int

val bundle_json :
  t ->
  stuck_at:int ->
  stuck_detail:string ->
  repro:string ->
  ring:string ->
  metrics:string ->
  string
(** The forensic bundle, one JSON line:
    [{"bundle":{"reason","property","detail","at","repro","ring","metrics"}}].
    After a trip it is reason ["violation"] with the {!first_trip}'s
    property, detail and sim-time; otherwise reason ["stuck"], property
    ["-"], [stuck_detail] and [stuck_at] (the run's end time). [repro] is
    the one-line replay command; [ring] (the flight-recorder view, see
    [Sim.Trace.ring_json]) and [metrics] are pre-rendered JSON. Equal
    runs give byte-identical bundles. *)

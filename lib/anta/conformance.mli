(** Trace conformance: did a participant behave like its automaton?

    Given an automaton and the full engine trace of a run, {!check} replays
    the events that concern one pid — its sends, its deliveries, and its
    timer firings — against the automaton's structure, and reports the
    first deviation. It never executes the automaton's side-effect hooks,
    so it is safe to run post-hoc on any trace.

    This is runtime verification in the classic sense: an honest executor
    run is conformant by construction (tested), while Byzantine
    substitutions (a thief escrow, a premature refunder) are flagged with
    a concrete witness. Because deviations are detected from the {e trace}
    alone, the checker would also work on message logs imported from a
    real deployment.

    Conformance is structural: output states must be matched by a send to
    the right destination (message payloads are re-signed per run, so
    their bytes are not compared — the wire tag is; pids are read at block
    base 0), receive transitions must be enabled by an acceptable
    delivered message exactly as the executor would fire them, each state
    entered must set the timers it arms, in branch order, and a timer
    firing takes the current state's branch armed under its label.

    [check auto inst ~pid ~tag_of trace] replays receive guards against
    [inst], the instance the automaton ran for. *)

type deviation = {
  at : Sim.Sim_time.t;  (** global time of the offending event *)
  state : Automaton.state;  (** automaton state when it happened *)
  reason : string;
}

val check :
  ('i, 'msg, 'obs) Automaton.t ->
  'i ->
  pid:int ->
  tag_of:('msg -> string) ->
  ('msg, 'obs) Sim.Trace.t ->
  (unit, deviation) result

(** Executor: runs an {!Automaton.t} as an engine process.

    Semantics implemented, matching the paper's informal ANTA semantics:

    - entering an output state performs its action and send, then moves on
      immediately (the engine's [sigma] models the "bounded amount of time
      calculating");
    - entering an input state arms one engine timer per deadline branch
      (a named timer that the state left also arms stays armed, unmoved)
      and then consults the {e pending pool}: messages that arrived while the
      automaton was elsewhere are not lost, they wait until a state with a
      matching receive transition is entered (channel semantics — the
      network holds undelivered-to-the-automaton messages);
    - when several transitions are enabled simultaneously, the textually
      first branch wins, making runs deterministic;
    - entering a final state performs its action and halts the process. *)

type ('i, 'msg, 'obs) running

val handlers :
  ('i, 'msg, 'obs) Automaton.t ->
  'i ->
  ('msg, 'obs) Sim.Engine.handlers * ('i, 'msg, 'obs) running
(** [handlers auto inst] is what {!instantiate} runs for one process,
    together with a [running] handle on it that exposes execution
    introspection. *)

val make : ('i, 'msg, 'obs) Automaton.t -> 'i -> ('i, 'msg, 'obs) running
(** [make auto inst] is the state {!handlers} runs, without the handler
    closures: a multiplexer that owns many processes calls {!on_start},
    {!on_receive} and {!on_timer} on it from handlers of its own, so
    each process costs only its state. *)

val on_start : ('i, 'msg, 'obs) running -> ('msg, 'obs) Sim.Engine.ctx -> unit
val on_receive :
  ('i, 'msg, 'obs) running -> ('msg, 'obs) Sim.Engine.ctx -> src:int -> 'msg -> unit
val on_timer :
  ('i, 'msg, 'obs) running -> ('msg, 'obs) Sim.Engine.ctx -> label:string -> unit
(** What the handlers {!handlers} builds over a [running] do. *)

val reset : ('i, 'msg, 'obs) running -> 'i -> unit
(** [reset r inst] puts the process back where {!handlers} starts it, now
    for the instance [inst]: its store unset, its pool empty, in its
    automaton's initial state with no deadline armed. The handlers built
    over [r] then run the automaton afresh, so a caller that reuses an
    engine process record reuses them too. The process must not be
    running: its engine record is retired and dropped, or not yet
    born. *)

val instantiate :
  ('i, 'msg, 'obs) Automaton.t array -> 'i -> int -> ('msg, 'obs) Sim.Engine.handlers
(** [instantiate t inst pid] runs pid's automaton of the template [t] (one
    automaton per pid) for the instance [inst]: every guard, act and
    message of the automaton is applied to [inst]. The automaton is shared
    and never written; the process's own state (current state, store,
    pending pool) is allocated here. The automaton's birth clocks
    ({!Automaton.born}) are assigned [now] when the process starts. *)

val current_state : ('i, 'msg, 'obs) running -> Automaton.state
val terminated : ('i, 'msg, 'obs) running -> bool
val store : ('i, 'msg, 'obs) running -> 'msg Store.t
val pending_count : ('i, 'msg, 'obs) running -> int
(** Messages delivered but not yet consumed by any transition. *)

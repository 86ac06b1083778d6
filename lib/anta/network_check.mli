(** Network-level well-formedness of an Asynchronous Network of Timed
    Automata.

    {!Automaton.check} validates each automaton in isolation; this module
    checks the {e network}: the collection of automata that will run
    together, one per pid. Property C demands that each participant can
    abide by the protocol — which fails not only when an automaton is
    internally broken, but also when the network's channels cannot carry
    the prescribed conversation:

    - {b dangling sends}: an output state addresses a pid that runs no
      automaton in the network;
    - {b deaf receivers}: an automaton sends to a peer whose automaton has
      {e no} receive transition listening to that sender, anywhere — the
      message can never be consumed, so the sender's downstream
      expectations are unmeetable;
    - {b unheard listeners}: a receive transition waits on a sender that
      never addresses this automaton — the transition is dead, and if it
      is the only way forward, so is the automaton (over-approximated: a
      warning, as Byzantine peers may still deliver); a receive from
      anyone never is. An output to an engine pid leaves the network, and
      {e peers} run hand-written processes beside it: neither dangles.

    The analysis is structural (per-channel, ignoring message predicates),
    so it over-approximates reachability: a clean result is necessary but
    not sufficient for liveness; a dirty one pinpoints a wiring bug. The
    Figure 2 network passes for every chain length — tested. *)

type issue =
  | Dangling_send of { from_ : int; state : Automaton.state; to_ : int }
  | Deaf_receiver of { from_ : int; to_ : int }
      (** [from_] sends to [to_], which never listens to [from_] *)
  | Unheard_listener of { at : int; state : Automaton.state; from_ : int }
      (** [at] waits for a message from [from_], which never sends to
          [at] *)

val check :
  ?peers:int list -> (int * ('i, 'msg, 'obs) Automaton.t) list -> issue list
(** Analyse a network given as (pid, automaton) pairs, beside [peers].
    The result lists every issue, errors first: dangling sends and deaf
    receivers are errors, an unheard listener is a warning. *)

val well_formed :
  ?peers:int list -> ('i, 'msg, 'obs) Automaton.t array -> (unit, string) result
(** The structural clause of property C for the network whose pid [p]
    runs [autos.(p)], beside [peers]: every automaton passes
    {!Automaton.check} and {!check} finds no error. The message names the
    first failing automaton, or every wiring error. *)

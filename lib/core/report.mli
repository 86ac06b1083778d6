(** Human-readable postmortems of payment runs.

    A report gathers everything an operator would ask after a run: the
    headline outcome, a per-participant account (role, termination, net
    position, final balances), the property verdicts, promise breaches,
    and each participant's conformance to its honest automaton, with the
    first deviation. Rendering is plain text, suitable for terminals and
    for golden-file tests. *)

type participant = {
  pid : int;
  name : string;  (** "Alice", "Chloe2", "e0", "tm0", … *)
  byzantine : string option;  (** substituted strategy, if any *)
  terminated : (int * string) option;  (** (global time, outcome tag) *)
  net : int;  (** customers: net position; others 0 *)
  conforms : (unit, Anta.Conformance.deviation) result option;
      (** the replay of the pid's honest automaton over the run's trace,
          with its first deviation; [None] for a hand-written TM replica *)
}

type t = {
  outcome : Protocols.Runner.outcome;
  headline : string;
  participants : participant list;
  verdicts : Props.Verdict.report;
  breaches : Props.Promises.breach list;
  conserved : bool;
}

val build : Protocols.Runner.outcome -> t
(** Chooses the Def. 1 or Def. 2 verdict set from the outcome's protocol,
    runs the promise monitors, and reads every participant's conformance
    from {!Protocols.Runner.outcome.conformance}. *)

val pp : Format.formatter -> t -> unit

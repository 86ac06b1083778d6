(** Human-readable postmortems of payment runs.

    A report gathers everything an operator would ask after a run: the
    headline outcome, a per-participant account (role, termination, net
    position, final balances), the property verdicts, promise breaches,
    and — for the automata-based protocols — per-participant conformance
    against Figure 2. Rendering is plain text, suitable for terminals and
    for golden-file tests. *)

type participant = {
  pid : int;
  name : string;  (** "Alice", "Chloe2", "e0", "tm0", … *)
  byzantine : string option;  (** substituted strategy, if any *)
  terminated : (int * string) option;  (** (global time, outcome tag) *)
  net : int;  (** customers: net position; others 0 *)
  conforms : bool option;
      (** Figure 2 conformance; [None] when not applicable (non-automaton
          protocol, or TM pids) *)
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
    runs the promise monitors, and — for [Sync_timebound] /
    [Naive_universal] — checks every payment participant's conformance. *)

val pp : Format.formatter -> t -> unit

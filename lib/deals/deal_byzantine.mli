(** Byzantine strategies for cross-chain deal parties.

    HLS's Safety property is per-party unconditional: "for {e every}
    protocol execution, every compliant party ends up with an acceptable
    payoff". These strategies exercise that claim beyond silence (the
    [compliant] array). Each is an {e edit} of the party's honest
    automaton ({!Anta.Automaton.rebuild}), ending, if it ends, in a
    stall. *)

type t =
  | Freeloader  (** starts at its vote: no deposit, no wait for its legs *)
  | Forged_votes  (** first claims its incoming legs with forged votes *)
  | Premature_claim  (** first sends the honest claims, holding its own vote *)
  | Double_claim  (** sends every claim twice: the ledger settles once *)
  | Vote_hoarder
      (** every state after its vote stalls: a liveness attack that must
          not become a safety one, as the on-chain reveal of claimed votes
          routes around it in well-formed deals *)
  | Lazy_claim
      (** honest up to its vote, then it claims only at the last moment of
          the timelock window: harmless in a strongly connected deal, it
          defeats the broker DAG's reveal cascade and breaks Safety for the
          compliant broker — the edge of HLS's hypothesis *)

val name : t -> string

val run_with_faults : Deal_runner.config -> faults:(int * t) list -> Deal_runner.outcome
(** Like {!Deal_runner.run} but running each faulty party as its strategy's
    edit. Faulty parties are also marked non-compliant in the outcome's
    config, so the property monitors condition on them correctly. Raises
    [Invalid_argument] for a party outside the deal or an edit that does
    not fit its party. *)

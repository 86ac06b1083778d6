(** Byzantine strategies for cross-chain deal parties.

    HLS's Safety property is per-party unconditional: "for {e every}
    protocol execution, every compliant party ends up with an acceptable
    payoff" — no matter what the other parties do. These strategies
    exercise that claim beyond simple silence (which {!Deal_runner}'s
    [compliant] array already models):

    - {!Freeloader}: votes and gossips but never escrows its outgoing
      legs, hoping to collect incoming transfers for free;
    - {!Forged_votes}: claims its incoming legs immediately with a vote
      set padded by forged signatures;
    - {!Premature_claim}: claims with whatever (incomplete) genuine votes
      it has gathered;
    - {!Double_claim}: claims every incoming leg twice (exercises the
      ledger's single-resolution guarantee);
    - {!Vote_hoarder}: escrows and votes but never gossips votes onward,
      starving downstream parties of the set they need (a liveness
      attack that must not become a safety one — the on-chain reveal of
      claimed proofs routes around it in well-formed deals);
    - {!Lazy_claim}: honest except that it claims at the last moment of
      the timelock window. In a strongly connected deal this hurts nobody
      (every party assembles the vote set by forward gossip, on its own
      schedule); in the broker DAG it defeats the reveal cascade and
      breaks Safety for the compliant broker — the sharp edge of HLS's
      well-formedness hypothesis.

    Each strategy produces engine handlers substituted for the party's
    honest ones by {!run_with_faults}. *)

type t =
  | Freeloader
  | Forged_votes
  | Premature_claim
  | Double_claim
  | Vote_hoarder
  | Lazy_claim

val name : t -> string

val run_with_faults :
  Deal_runner.config -> faults:(int * t) list -> Deal_runner.outcome
(** Like {!Deal_runner.run} but substituting the given strategies. Faulty
    parties are also marked non-compliant in the outcome's config, so the
    property monitors condition on them correctly. *)

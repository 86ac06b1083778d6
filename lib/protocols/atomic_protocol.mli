(** The Interledger {e atomic} protocol (Thomas & Schwartz 2015) — the
    partially-synchronous baseline the paper compares against.

    Mechanism: legs are {e prepared} (escrowed) hop by hop from Alice
    toward Bob; when Bob's incoming leg is prepared he submits a signed
    receipt (we reuse χ) to a notary, which acts as the shared source of
    truth: it decides {e Executed} if the receipt arrives before a fixed
    deadline [T] on its own clock, else {e Aborted}; escrows settle on the
    notary's signed decision.

    Safety-wise this is sound (the notary's single decision plays the
    χc/χa role, legs settle atomically). What it lacks — the paper's whole
    point — is any {e success guarantee}: the deadline [T] is fixed ahead
    of time against unknown network delays, so under partial synchrony
    with GST beyond [T] the payment aborts even though every participant
    is honest and endlessly patient. Experiment E11 measures exactly this
    collapse, against the weak protocol whose patience is under the
    customers' control.

    The notary is modelled as a single trusted process, the same trust
    base Interledger assumes of its notary group (a committee variant
    would mirror {!Weak_protocol}'s and adds nothing to the comparison —
    see DESIGN.md).

    Every participant, and the notary, is a timed automaton in the
    {!Anta} formalism over the payment's {!Env.t}, drawn in
    docs/protocol.md. The notary's [T] is an absolute time on its own
    clock ([Anta.Automaton.At]); it halts once it has announced its
    decision. A settlement that arrives before the decision it follows
    waits in the executor's pool. *)

type config = {
  deadline : Sim.Sim_time.t;
      (** the notary aborts at this local time if no receipt has arrived *)
}

val default_config : config
(** deadline 5_000. *)

type template = (Env.t, Msg.t, Obs.t) Anta.Automaton.t array
(** The automaton of each participant and of the notary (the pid after
    theirs), by pid. *)

val template : hops:int -> config -> template
(** The automata of the [hops]-escrow chain and its notary, whose deadline
    is [config.deadline]. *)

(** The time-bounded cross-chain payment protocol of Theorem 1 / Figure 2.

    This is the Interledger "universal" protocol of Thomas & Schwartz,
    fine-tuned for clock drift via the {!Params} derivation, expressed as
    the paper's four automata (escrow e{_i}, Alice, Chloe{_i}, Bob) in the
    {!Anta} formalism. The automata are faithful to Figure 2:

    {v
    escrow e_i:  s(c_i, G(d_i)) ; r(c_i, $) ; s(c_{i+1}, P(a_i)), u := now ;
                 then either r(c_{i+1}, χ) ; s(c_i, χ) ; s(c_{i+1}, $)
                 or timeout now >= u + a_i ; s(c_i, $)
    Chloe_i:     r(e_i, G(d_i)) ; r(e_{i-1}, P(a_{i-1})) ; s(e_i, $) ;
                 then either r(e_i, $)            — refunded, done
                 or r(e_i, χ) ; s(e_{i-1}, χ) ; r(e_{i-1}, $)
    Alice = Chloe_0 without the upstream side;
    Bob:         r(e_{n-1}, P(a_{n-1})) ; s(e_{n-1}, χ) ; r(e_{n-1}, $)
    v}

    The $ message from customer to escrow is a payment instruction executed
    as a {!Ledger.Book.deposit}; the escrow's $ messages report a
    {!Ledger.Book.release} (downstream) or {!Ledger.Book.refund}
    (upstream). χ is accepted only if Bob's signature verifies and it
    arrives strictly inside the promise window ([v < u + a{_i}]: the
    deadline transition is armed first, so a tie resolves to refund,
    matching the strict inequality).

    Passing drift-blind parameters (derived with [drift_ppm = 0]) while the
    clocks actually drift yields exactly the {e naive} universal protocol —
    the E9 baseline; no separate implementation is needed (and one would be
    wrong: the point is that only the parameters differ). *)

(** {1 Template and instance}

    The automata depend only on the chain's shape (the pid layout) and on
    the Thm 1 windows a{_i}/d{_i} of the {!Params}: a {!template} compiles
    them once. Everything a payment owns — amounts, books, payment id,
    keys, and the deposit each escrow holds — is the {!Env.t} instance the
    template is dispatched with, so one template serves every payment of
    the same length and parameters, concurrently. *)

type auto = (Env.t, Msg.t, Obs.t) Anta.Automaton.t

type template = auto array
(** The automaton of each payment participant, by pid. *)

val template : Params.t -> template
(** The automata of every participant of the [Array.length params.a]-escrow
    chain, with the escrows' deadlines and promises taken from [params]. *)

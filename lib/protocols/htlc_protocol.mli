(** Hashed-timelock payment chain — the folklore baseline.

    This is the protocol family deployed by Lightning-style networks and by
    the timelock side of Interledger: Bob mints a secret preimage [s] and
    circulates the lock [H(s)]; each leg is deposited under that hashlock
    with a refund timelock, timelocks {e decreasing} toward Bob so an
    upstream escrow never refunds while a downstream claim is still
    possible; Bob claims with [s], and the revealed key propagates upstream
    hop by hop.

    The baseline exists to quantify what the paper's protocol buys:

    - no certificate χ: Alice's "receipt" is the bare preimage, which only
      proves that {e someone} claimed, not that Bob's obligation
      statement was met;
    - worst-case money-lock time grows as Θ(n²·δ) summed over legs
      (timelocks nest linearly per leg), against the paper's nested a{_i}
      windows that release the moment χ passes — experiment E5 measures
      this;
    - the same drift-race on the refund deadline exists per leg.

    Every participant is a timed automaton in the {!Anta} formalism: the
    hashlock-plus-timelock automaton of Herlihy's atomic cross-chain swaps,
    drawn in docs/protocol.md. An escrow refuses in place (observing
    [Rejected], forwarding nothing) a deposit its book cannot cover, a
    claim before any contract and a claim with the wrong preimage. *)

(** {1 Template and instance}

    The automata depend only on the chain's length and the timelock
    ladder, both read from the {!Params}: a {!template} compiles them
    once. A payment's instance is its {!Env.t} plus what HTLC adds to it:
    Bob's preimage and the lock each escrow took its deposit under. *)

type inst = {
  env : Env.t;
  preimage : Xcrypto.Hashlock.preimage;  (** Bob's secret *)
  lock : Xcrypto.Hashlock.lock;  (** [H(preimage)], Bob's invoice *)
  locks : Xcrypto.Hashlock.lock option array;
      (** [locks.(i)]: the lock e{_i} holds its deposit under, once it
          does *)
}

val instance : Env.t -> seed:int -> inst
(** The payment [env] with a fresh preimage drawn from [seed]. *)

type template = (inst, Msg.t, Obs.t) Anta.Automaton.t array
(** The automaton of each payment participant, by pid. *)

val template : Params.t -> template
(** The automata of every participant of the [params.input.hops]-escrow
    chain, with the escrows' timelocks {!window_of} [params]. *)

val window_of : Params.t -> int -> Sim.Sim_time.t
(** The refund timelock of leg [i] (local ticks from deposit): [(hops - i)
    * 4 + 2] rungs of one hop's worst cost [σ + δ + margin], inflated for
    clock drift, all read from the params' input. *)

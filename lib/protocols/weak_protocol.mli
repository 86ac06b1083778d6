(** The cross-chain payment protocol with weak liveness guarantees
    (Theorem 3), solvable under partial synchrony with Byzantine failures.

    Mechanism (per §3 of the paper): an external {e transaction manager}
    (TM) issues either a commit certificate χc or an abort certificate χa —
    never both (property CC). Deposits are conditional on that decision:

    - each paying customer c{_i} (i < n) deposits her leg's amount at
      escrow e{_i} when she feels ready (after [deposit_delay] on her
      clock);
    - each escrow reports its funded leg to the TM with a signed
      certificate;
    - the TM decides {e commit} once all n legs are funded, or {e abort}
      when any customer loses patience and requests it;
    - on χc every escrow releases its deposit downstream (Bob is paid at
      e{_{n-1}}, Alice keeps χc as transferable proof that Bob was paid —
      CC + CS2 make it one); on χa every escrow refunds.

    Any customer may abort at any moment of their choice without risking
    value — the [patience] parameter is the local delay after which she
    does. If nobody loses patience and nobody fails, success is guaranteed
    once the network stabilises (weak liveness: patience must outlast
    GST-induced delays — experiment E4 sweeps exactly this).

    The TM is instantiated all three ways the paper suggests: a single
    trusted party ({!Single}); a smart contract replicated over a shared
    blockchain ({!Chain}, built on {!Consensus.Chain}); and a committee of
    notaries running the {!Consensus.Dls} algorithm ({!Committee} for the
    classic 3f+1 majority committee, {!Quorum} for an arbitrary
    {!Quorum_system.t} family — weighted, grid — at any size).

    Every customer, every escrow and the single TM is a timed automaton
    (drawn in docs/protocol.md); the DLS notaries and chain validators are
    hand-written handlers at the pids past the automata. *)

type tm_kind =
  | Single
  | Committee of { f : int }
      (** 3f+1 notary processes; their pids follow the payment pids.
          Equivalent to [Quorum] over
          [Quorum_system.majority ~n:(3*f+1) ~f ()]. *)
  | Quorum of { qs : Quorum_system.t }
      (** a notary committee sized and thresholded by an arbitrary
          validated quorum system; replica index i runs at aux pid
          [aux_base + i] *)
  | Chain of { validators : int }
      (** the TM as a smart contract replicated over an authority
          blockchain ({!Consensus.Chain}): escrows and customers submit
          funded reports / abort requests as transactions; every validator
          replays the unique chain, so the contract decides once and each
          validator's signed decision is equivalent — the paper's
          "smart contract running on a permissionless blockchain" *)
  | Shared of {
      pids : int array;
          (** absolute engine pids of the committee replicas;
              [pids.(0)] is the batching sequencer requests go to *)
      verify : Quorum.Committee.batch Consensus.Dls.decision_cert -> bool;
          (** certificate check over the committee's registry and quorum
              system (e.g. [Quorum.Committee.verify_cert cfg]) *)
    }
      (** shared-committee mode: the payment has {e no} TM processes of
          its own ([tm_pids] is [[||]]); instead its participants talk to
          one external {!Quorum.Committee} block that batches verdicts
          for thousands of concurrent payments into shared certificates
          (see [Traffic.Load]). Escrows report funded legs and customers
          request aborts via {!Msg.Quorum_req} sent with absolute pids;
          a payment's item at the committee is its payment id. The
          decision arrives as a {!Msg.Quorum_decision} batch certificate
          from which each participant extracts its own item's verdict
          after verifying the quorum signatures. Requests are
          content-trusted (the certificate is the cryptographic
          interface) — the honest-participant benchmark scope. *)

type notary_fault =
  | Notary_honest
  | Notary_crash  (** silent from the start *)
  | Notary_equivocate
      (** as leader proposes conflicting values to different peers and
          signs echoes for every value it sees *)

type config = {
  tm : tm_kind;
  patience : Sim.Sim_time.t;
      (** local delay after which a customer requests abort;
          {!Sim.Sim_time.infinity} = never *)
  deposit_delay : Sim.Sim_time.t;  (** local delay before depositing *)
  tm_base_timeout : Sim.Sim_time.t;  (** committee round-0 timeout *)
  notary_faults : notary_fault array;
      (** per-notary behaviour; ignored for {!Single}. Length must be 3f+1
          when given; [||] means all honest. *)
}

val default_config : config
(** Single TM, patience 5_000, deposit delay 10, base timeout 200. *)

val tm_count : config -> int
(** How many TM processes the config runs. *)

val tm_pids : Topology.t -> config -> int array
(** The TM process pids implied by the config (aux pids after the payment
    participants). *)

type instance
(** One payment's run of a template: its {!Env.t}, config and committee
    certificate checker. *)

val instance : Env.t -> config -> instance

type template = (instance, Msg.t, Obs.t) Anta.Automaton.t array
(** The automaton of each customer and escrow, then of a {!Single} TM. *)

val template : config -> hops:int -> template

val instantiate : template -> instance -> int -> (Msg.t, Obs.t) Sim.Engine.handlers
(** {!Anta.Executor.instantiate}, or past the template a committee's or
    chain's honest replica. *)

val well_formed : config -> hops:int -> (unit, string) result
(** {!Anta.Network_check.well_formed}, the replicas as peers. *)


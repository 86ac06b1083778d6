(** Execute a cross-chain deal under the timelock or certified-blockchain
    commit protocol of Herlihy–Liskov–Shrira (§5 of the paper). Every
    participant runs an {!Anta.Automaton} of the run's {!template}: the
    parties at pids [0 .. p-1], one escrow blockchain per arc at
    [p + arc_index], and last, under {!Cbc} only, the certified blockchain.

    {b Timelock commit} (requires synchrony): parties gossip signed commit
    votes along deal arcs; a payee redeems an incoming leg by presenting
    the complete vote set to its escrow before the leg's timelock (sized
    from the deal's diameter and the drift bound) expires; unredeemed legs
    refund at the deadline.

    {b Certified blockchain commit} (partial synchrony): votes go to a
    certifying blockchain, which signs commit once all are in, or abort
    when its patience runs out; escrows resolve only on its certificate,
    so no honest asset is lost to a timeout race — but strong liveness is
    surrendered, exactly as §5 states. *)

type commit_protocol = Timelock | Cbc

type config = {
  deal : Deal.t;
  protocol : commit_protocol;
  compliant : bool array;  (** per party; a non-compliant party stalls at birth *)
  delta : Sim.Sim_time.t;
  sigma : Sim.Sim_time.t;
  drift_ppm : int;
  gst : Sim.Sim_time.t option;  (** None = synchronous network *)
  cb_patience : Sim.Sim_time.t;  (** CBC: certifier aborts after this *)
  seed : int;
  max_events : int;
}

val default_config : Deal.t -> commit_protocol -> config

type vote = Dmsg.vote_body Xcrypto.Auth.signed

type inst = {
  books : Ledger.Book.t array;  (** one per arc *)
  deposits : int array;  (** per arc: its deposit, or [-1] *)
  registry : Xcrypto.Auth.registry;
  votes : vote array;  (** each party's vote, signed once per run *)
  known : (int, vote) Hashtbl.t array;  (** per party, by author, its own included *)
}
(** A run's instance. The templates' guards read only its registry, so
    the conformance replay after a run makes the executor's choices. *)

type auto = (inst, Dmsg.t, Dobs.t) Anta.Automaton.t

type outcome = {
  config : config;
  status : Sim.Engine.status;
  trace : (Dmsg.t, Dobs.t) Sim.Trace.t;
  books : Ledger.Book.t array;  (** one per arc *)
  end_time : Sim.Sim_time.t;
  conformance : int -> (unit, Anta.Conformance.deviation) result;
      (** the replay of the pid's honest automaton over the trace *)
}

val template : config -> auto array
(** Every pid's honest automaton; the pid layout and the deadlines are its
    constants. Built once per deal, protocol and timing ([delta],
    [sigma], [drift_ppm], [cb_patience]) and shared by every later call
    with the same ones: callers must not write into the array. Raises
    [Invalid_argument] if [compliant] does not have one entry per party
    or the network fails C's structural clause
    ({!Anta.Network_check.well_formed}).

    Party [p]'s states say what it knows, as the mask [S] of the parties
    whose valid votes it holds (bit [q] for party [q]): the [deposit<i>]
    sends; [legs<j>.k<S>], awaiting its [j]-th incoming leg's notice, in
    the first branch; the [vote.k<S>.<i>] sends; [voted.k<S>.f<F>],
    awaiting the fate of its [F]-th leg; the [learn.k<S>.f<F>.<i>] sends;
    the final [done]. *)

val legs : config -> out:bool -> Deal.party -> int list
(** The arcs out of the party, if [out], or else into it. *)

val known : inst -> Deal.party -> vote list
(** The votes the party holds, as its gossip and claims carry them. *)

val execute : config -> auto array -> edit:(int -> auto -> auto) -> outcome
(** [execute cfg tmpl ~edit] runs pid [q] as [edit q tmpl.(q)], the honest
    automaton or an edit of it; a non-compliant party stalls at birth.
    [outcome.conformance] replays [tmpl], so one {!template} serves both. *)

val run : config -> outcome
(** {!execute} of the {!template}, unedited. *)

val claim_window : config -> Sim.Sim_time.t
(** The (uniform) timelock each leg's escrow applies from its deposit. *)

val gained : outcome -> Deal.party -> Ledger.Asset.Bag.t
(** Assets actually received by the party across all incoming arcs. *)

val lost : outcome -> Deal.party -> Ledger.Asset.Bag.t
(** Assets definitively parted with (released to the payee). *)

val escrowed_forever : outcome -> (int * Deal.party) list
(** Arcs whose deposit was still unresolved at the end, with the depositor
    — termination violations. *)

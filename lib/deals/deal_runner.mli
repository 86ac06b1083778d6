(** Execute a cross-chain deal under the timelock or certified-blockchain
    commit protocol of Herlihy–Liskov–Shrira (§5 of the paper).

    Process layout: parties get pids [0 .. p-1]; each arc gets its own
    escrow blockchain process at pid [p + arc_index]; the certified
    blockchain — present only for {!Cbc} — is the last pid.

    {b Timelock commit} (requires synchrony): parties sign commit votes and
    gossip them along deal arcs; a payee redeems an incoming leg by
    presenting the complete vote set to the leg's escrow before its
    timelock (sized from the deal's diameter and the drift bound) expires;
    unredeemed legs refund at the deadline.

    {b Certified blockchain commit} (partial synchrony): votes go to a
    certifying blockchain, which issues a single signed commit certificate
    once all votes are in, or an abort certificate when its patience runs
    out; escrows resolve only on certificates, so no honest asset is ever
    lost to a timeout race — but strong liveness is surrendered, exactly as
    §5 states. *)

type commit_protocol = Timelock | Cbc

type config = {
  deal : Deal.t;
  protocol : commit_protocol;
  compliant : bool array;  (** per party; non-compliant parties stay silent *)
  delta : Sim.Sim_time.t;
  sigma : Sim.Sim_time.t;
  drift_ppm : int;
  gst : Sim.Sim_time.t option;  (** None = synchronous network *)
  cb_patience : Sim.Sim_time.t;  (** CBC: certifier aborts after this *)
  seed : int;
  max_events : int;
}

val default_config : Deal.t -> commit_protocol -> config

type outcome = {
  config : config;
  status : Sim.Engine.status;
  trace : (Dmsg.t, Dobs.t) Sim.Trace.t;
  books : Ledger.Book.t array;  (** one per arc *)
  end_time : Sim.Sim_time.t;
  message_count : int;
}

val run :
  ?substitute:
    (party:int ->
    signer:Xcrypto.Auth.signer ->
    (Dmsg.t, Dobs.t) Sim.Engine.handlers option) ->
  config ->
  outcome
(** [substitute] replaces a party's honest handlers (used by
    {!Deal_byzantine}); [None] keeps the honest/compliant behaviour. *)

val claim_window : config -> Sim.Sim_time.t
(** The (uniform) timelock each leg's escrow applies from its deposit. *)

val gained : outcome -> Deal.party -> Ledger.Asset.Bag.t
(** Assets actually received by the party across all incoming arcs. *)

val lost : outcome -> Deal.party -> Ledger.Asset.Bag.t
(** Assets definitively parted with (released to the payee). *)

val escrowed_forever : outcome -> (int * Deal.party) list
(** Arcs whose deposit was still unresolved at the end, with the depositor
    — termination violations. *)

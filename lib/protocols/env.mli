(** Shared run environment: topology + parameters + ledgers + keys.

    One {!t} describes a single payment attempt: who the participants are,
    how much moves on each leg (Chloe's commissions make the amounts strictly
    decreasing toward Bob), the per-escrow ledger {!Ledger.Book}s, and the
    signature registry with per-participant signing capabilities.

    It is also the {e instance} a {!Sync_protocol.template} or
    {!Atomic_protocol.template} runs for, and the core of HTLC's: the
    templates' guards and acts read amounts, books, payment id and keys
    from here, and the escrows keep their held deposit in {!field-deposits},
    so one template serves any number of concurrent payments. *)

type t = {
  topo : Topology.t;
  params : Params.t;
  mutable payment : int;  (** payment identifier signed into certificates *)
  mutable value : int;  (** what Bob is owed *)
  amounts : int array;
      (** [amounts.(i)] is what c{_i} pays at e{_i}; decreasing in [i] *)
  books : Ledger.Book.t array;  (** [books.(i)] is e{_i}'s ledger *)
  registry : Xcrypto.Auth.registry;
      (** per-pid signing capabilities; use {!signer_of} *)
  deposits : int array;
      (** [deposits.(i)] is the deposit an honest e{_i} holds for this
          payment, [-1] until it lands *)
}

val make :
  topo:Topology.t ->
  params:Params.t ->
  ?payment:int ->
  ?value:int ->
  ?commission:int ->
  ?amounts:int array ->
  ?seed:int ->
  ?books:Ledger.Book.t array ->
  unit ->
  t
(** Books are opened with exactly the balances the protocol needs: c{_i}
    holds [amounts.(i)] at e{_i}, the downstream customer and the escrow
    itself hold 0 there. Default [value] 1000, [commission] 10, [seed] 7.

    [amounts] overrides the uniform-commission ladder with explicit
    per-leg amounts (graph routing charges each edge its own commission).
    It must have one entry per hop, decrease weakly toward Bob, and end
    at exactly [value]; [commission] is then ignored.

    [books] (load runs) shares pre-existing books — one per hop — between
    concurrent payments so they contend for the same liquidity. The caller
    owns funding; [make] only opens any missing accounts with balance 0 and
    never re-funds existing ones. *)

val reuse :
  t ->
  payment:int ->
  value:int ->
  amounts:int array ->
  seed:int ->
  books:Ledger.Book.t array ->
  unit
(** [reuse t ~payment ~value ~amounts ~seed ~books] turns [t] in place
    into the env that [make] with the same [topo] and [params], these
    arguments and shared [books] returns: amounts, books and deposits are
    written into [t]'s own arrays, and its registry is reset and
    re-registered, so it mints the same keys, and every signature the
    same MAC. Meant for a load run that reuses a retired payment's block:
    nothing of the old payment may still read [t]. *)

val signer_of : t -> int -> Xcrypto.Auth.signer
(** The signing capability of pid — handed by the runner to the process
    (and only to it; this is what makes signatures unforgeable in the
    model). Idempotent per pid. *)

val amount_at : t -> int -> int
(** [amount_at t i] = what moves through escrow e{_i}. *)

val chi_ok : t -> Msg.chi_body Xcrypto.Auth.signed -> bool
(** Is this a genuine χ for this payment, signed by Bob? *)

val make_chi : t -> Msg.chi_body Xcrypto.Auth.signed
(** Bob's signature over the χ statement (usable only by code holding the
    env — Byzantine strategies instead use {!Xcrypto.Auth.forge_value},
    which verification rejects). *)

val promise_g_ok : t -> escrow_index:int -> Msg.promise_g Xcrypto.Auth.signed -> bool
val promise_p_ok : t -> escrow_index:int -> Msg.promise_p Xcrypto.Auth.signed -> bool
val decision_ok : t -> tm:int -> Msg.decision_body Xcrypto.Auth.signed -> bool
val funded_ok : t -> escrow_index:int -> Msg.funded_body Xcrypto.Auth.signed -> bool

(** {1 Escrow ledger acts}: what an honest e{_i} does to its book for this
    payment, and the observation it emits. *)

val can_fund : t -> int -> bool
(** Does c{_i}'s balance at e{_i}, plus a deposit this payment already
    holds there, cover [amount_at t i]? Before the deposit: exactly whether
    {!deposit} succeeds. After it: still true, so a guard on it replays
    over the final books ({!Anta.Conformance}) as it ran. *)

val deposit : t -> (Msg.t, Obs.t) Sim.Engine.ctx -> int -> unit
(** e{_i} takes [amount_at t i] from c{_i} into the pool and records it in
    [deposits.(i)], observing [Deposited]; or observes
    [Rejected "deposit: …"] and takes nothing. *)

val release : t -> (Msg.t, Obs.t) Sim.Engine.ctx -> int -> unit
(** e{_i} pays [deposits.(i)] out to c{_(i+1)}, observing [Released]; or
    [Rejected "release: …"] ("release: no deposit" if it holds none). *)

val refund : t -> (Msg.t, Obs.t) Sim.Engine.ctx -> int -> unit
(** e{_i} returns [deposits.(i)] to c{_i}, observing [Refunded]; or
    [Rejected "refund: …"] ("refund: no deposit" if it holds none). *)

(** {1 Automaton pieces} shared by the templates. *)

val is_money : int -> t -> Msg.t -> bool
(** [is_money i t]: the guard "$ of [amount_at t i]". *)

val money_of :
  int -> t -> (Msg.t, Obs.t) Sim.Engine.ctx -> Msg.t Anta.Store.t -> Msg.t
(** [money_of i t]: the $ message of [amount_at t i]. *)

val recv :
  int ->
  string ->
  ('i -> Msg.t -> bool) ->
  Anta.Automaton.state ->
  ('i, Msg.t, Obs.t) Anta.Automaton.branch
(** [recv pid describe accept next]: a receive from pid, with no save or
    act. *)

val decided : (Msg.t, Obs.t) Sim.Engine.ctx -> tm:int -> bool -> unit
(** TM [tm] observes its decision made and issued as χc or χa. *)

val funded_report : t -> int -> Msg.t
(** e{_i}'s signed report that its leg is funded. *)

val decide :
  t -> (Msg.t, Obs.t) Sim.Engine.ctx -> Msg.t Anta.Store.t -> tm:int -> bool -> unit
(** {!decided}, and the signed decision into the data variable ["decision"]. *)

val announce :
  tm:int -> (Anta.Automaton.state * ('i, Msg.t, Obs.t) Anta.Automaton.node) list
(** Outputs of ["decision"] to pids 0 .. [tm - 1], then the final
    ["decided"], where [tm] terminates with outcome ["decided"]. *)

val final : int -> string -> ('i, Msg.t, Obs.t) Anta.Automaton.node
(** [final pid outcome]: a final state observing pid [Terminated] with
    [outcome]. *)

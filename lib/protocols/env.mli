(** Shared run environment: topology + parameters + ledgers + keys.

    One {!t} describes a single payment attempt: who the participants are,
    how much moves on each leg (Chloe's commissions make the amounts strictly
    decreasing toward Bob), the per-escrow ledger {!Ledger.Book}s, and the
    signature registry with per-participant signing capabilities.

    It is also the {e instance} a {!Sync_protocol.template} runs for: the
    template's guards and acts read amounts, books, payment id and keys
    from here, and the escrows keep their held deposit in {!field-deposits},
    so one template serves any number of concurrent payments. *)

type t = {
  topo : Topology.t;
  params : Params.t;
  payment : int;  (** payment identifier signed into certificates *)
  value : int;  (** what Bob is owed *)
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

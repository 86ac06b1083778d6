(** Wire messages of all payment protocols.

    One message type serves every protocol in the library (the engine is
    monomorphic in its message type per run); each protocol uses the subset
    it needs. The three message kinds of the paper's §4 appear directly:

    - the value message [$] ({!constructor-Money}) — an instruction or
      notification concerning funds held by the receiving/sending escrow;
      value itself moves on the escrow's {!Ledger.Book};
    - the certificate χ ({!constructor-Chi}) — "signed by Bob, saying that
      Alice's obligation to pay him has been met";
    - the promises G(d) and P(a) — signed by the escrow issuing them.

    The weak protocol (Thm 3) adds funded reports, abort requests and the
    transaction manager's decision certificates; the notary-committee
    variant tunnels consensus messages; the HTLC baseline adds hashlock
    setup/claim messages. *)

type promise_g = { g_escrow : int; g_customer : int; d : Sim.Sim_time.t }
(** "I guarantee that if I receive $ from you at my local time w, then I
    will send you either $ or χ by my local time w + d." *)

type promise_p = { p_escrow : int; p_customer : int; a : Sim.Sim_time.t }
(** "I promise that if I receive χ from you at my time v, with
    v < now + a, then I will send you $ by my local time v + ε." *)

type chi_body = { x_payment : int; x_bob : int }
(** χ's statement; [x_payment] identifies the payment, [x_bob] the signer
    whose obligation-satisfaction it certifies. *)

type funded_body = { f_escrow : int; f_payment : int; f_amount : int }
type decision_body = { dec_payment : int; dec_commit : bool }

type chain_tx =
  | Tx_funded of funded_body Xcrypto.Auth.signed
  | Tx_abort of { customer : int; payment : int }
      (** transactions of the chain-hosted transaction-manager contract *)

type t =
  | Money of { amount : int }
  | Promise_g of promise_g Xcrypto.Auth.signed
  | Promise_p of promise_p Xcrypto.Auth.signed
  | Chi of chi_body Xcrypto.Auth.signed
  | Funded of funded_body Xcrypto.Auth.signed
      (** weak protocol: escrow → TM, "my leg is deposited" *)
  | Abort_req of { payment : int }  (** weak protocol: customer → TM *)
  | Tm_decision of decision_body Xcrypto.Auth.signed
      (** single-party TM's χc/χa *)
  | Committee_decision of {
      commit : bool;
      cert : bool Consensus.Dls.decision_cert;
    }  (** notary committee's χc/χa: a consensus decision certificate *)
  | Notary of bool Consensus.Dls.msg  (** committee-internal *)
  | Chain_gossip of chain_tx Consensus.Chain.msg
      (** chain-TM internal: block announcements between validators *)
  | Htlc_setup of { lock : Xcrypto.Hashlock.lock; amount : int }
  | Htlc_claim of { preimage : Xcrypto.Hashlock.preimage }
  | Htlc_key of { preimage : Xcrypto.Hashlock.preimage }
      (** escrow → upstream customer: the revealed key *)
  | Quorum_req of { item : int; req : quorum_req }
      (** shared-committee mode: a payment participant asks the external
          batching committee for a verdict on its item. Sent with
          absolute pids across multiplexer blocks; content-trusted — the
          certificate flowing back is the cryptographic interface *)
  | Quorum_msg of Quorum.Committee.msg
      (** shared-committee internal: slot-tagged consensus traffic *)
  | Quorum_decision of {
      cert : Quorum.Committee.batch Consensus.Dls.decision_cert;
    }
      (** a batch certificate covering many items; each participant
          verifies the quorum signatures and extracts its own verdict *)
  | Start  (** generic kick-off ping *)
  | Traffic_done of { payment : int }
      (** load-scheduler control plane: one participant of [payment]
          reached its terminal state (sent by multiplexer wrappers, never
          by protocol automata) *)

and quorum_req = Leg_funded of { escrow_index : int } | Abort_wanted

val tag : t -> string
(** Stable label used in traces and by adversaries to target message
    classes (e.g. delay only ["chi"]). *)

val pp : Format.formatter -> t -> unit

(** {1 Statements for signing}

    Each signed body has a statement writer in the sense of
    {!Xcrypto.Auth.sign_value}: it writes the body's statement into a
    buffer and returns its length. A statement is the body's tag and
    fields joined by ['|'], times as {!Sim.Sim_time.to_string}. *)

val ser_promise_g : bytes -> promise_g -> int
(** ["G|<escrow>|<customer>|<d>"] *)

val ser_promise_p : bytes -> promise_p -> int
(** ["P|<escrow>|<customer>|<a>"] *)

val ser_chi : bytes -> chi_body -> int
(** ["chi|<payment>|<bob>"] *)

val ser_funded : bytes -> funded_body -> int
(** ["funded|<escrow>|<payment>|<amount>"] *)

val ser_decision : bytes -> decision_body -> int
(** ["dec|<payment>|<true or false>"] *)

val ser_bool : bool -> string
(** Serializer for committee consensus values (commit?): ["commit"] or
    ["abort"], the value part of a notary's echo and commit statements. *)

val chain_tx_key : chain_tx -> string
(** Identity used by the chain's mempool/replay dedupe: funded reports are
    keyed by escrow and payment, abort requests by customer and payment. *)

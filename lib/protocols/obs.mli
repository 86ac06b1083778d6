(** Domain observations.

    Every protocol emits these into the trace as it acts; the property
    monitors (library [props]) are pure functions over them. They are the
    ground truth for the paper's safety and liveness properties: money
    movements come from ledger operations actually performed, certificate
    events from signature checks actually passed. *)

type cert_kind =
  | Chi  (** χ — Bob's payment certificate (Def. 1) *)
  | Chi_commit  (** χc — the transaction manager's commit certificate *)
  | Chi_abort  (** χa — the transaction manager's abort certificate *)

type t =
  | Deposited of { escrow : int; depositor : int; amount : int; deposit : int }
      (** the depositor's funds moved into the escrow pool *)
  | Released of { escrow : int; deposit : int; to_ : int; amount : int }
      (** a held deposit paid out downstream *)
  | Refunded of { escrow : int; deposit : int; depositor : int; amount : int }
  | Cert_issued of { by : int; kind : cert_kind }
      (** [by] signed and sent the certificate — for Bob (χ) this is the act
          CS2 constrains *)
  | Cert_received of { pid : int; kind : cert_kind; valid : bool }
      (** a certificate arrived and was verified ([valid] records the
          signature check's outcome) *)
  | Funded_reported of { escrow : int; amount : int }
      (** weak protocol: escrow told the TM its leg is funded *)
  | Abort_requested of { by : int }
      (** weak protocol: a customer lost patience *)
  | Decision_made of { by : int; commit : bool }
      (** weak protocol: the TM (or a notary) fixed the outcome *)
  | Terminated of { pid : int; outcome : string }
      (** the participant's protocol role completed; [outcome] is a short
          tag such as "paid", "refunded", "certified" *)
  | Rejected of { pid : int; what : string }
      (** an invalid operation or message was refused (forged signature,
          double resolution, insufficient funds, …) *)
  | Note of { pid : int; what : string }  (** free-form diagnostic *)

val tag : t -> string
(** Short constructor name, for filtering. *)

val pp : Format.formatter -> t -> unit

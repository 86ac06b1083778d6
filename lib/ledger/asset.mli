(** Assets and multi-asset bags.

    The paper lets transferred values "be expressed in different currencies,
    or they may be objects". We model an asset as a (currency, amount) pair
    with integer amounts (smallest indivisible unit), and a {!bag} as a
    multiset of assets — the payoff accounting unit for cross-chain deals. *)

type t = { currency : string; amount : int }

val make : currency:string -> amount:int -> t
(** [amount] must be non-negative. *)

val pp : Format.formatter -> t -> unit

(** {1 Bags} *)

module Bag : sig
  type asset = t
  type t
  (** A finite map currency → non-negative amount. *)

  val empty : t
  val is_empty : t -> bool
  val of_list : asset list -> t
  val add : t -> asset -> t

  val geq : t -> t -> bool
  (** Pointwise ≥ on every currency. *)

  val pp : Format.formatter -> t -> unit
  (** The non-zero entries, sorted by currency; [∅] for an empty bag. *)
end

(** Assets and multi-asset bags.

    The paper lets transferred values "be expressed in different currencies,
    or they may be objects". We model an asset as a (currency, amount) pair
    with integer amounts (smallest indivisible unit), and a {!bag} as a
    multiset of assets — the payoff accounting unit for cross-chain deals. *)

type t = { currency : string; amount : int }

val make : currency:string -> amount:int -> t
(** [amount] must be non-negative. *)

val zero : string -> t
val is_zero : t -> bool
val add : t -> t -> t
(** Same-currency addition; raises [Invalid_argument] on currency
    mismatch. *)

val sub : t -> t -> t
(** Same-currency subtraction; raises if the result would be negative. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** {1 Bags} *)

module Bag : sig
  type asset = t
  type t
  (** A finite map currency → non-negative amount. *)

  val empty : t
  val is_empty : t -> bool
  val of_list : asset list -> t
  val to_list : t -> asset list
  (** Sorted by currency; zero entries omitted. *)

  val add : t -> asset -> t
  val union : t -> t -> t

  val sub : t -> asset -> (t, string) result
  (** Fails (with a message) if the bag does not contain the asset. *)

  val diff : t -> t -> (t, string) result
  val geq : t -> t -> bool
  (** Pointwise ≥ on every currency. *)

  val amount : t -> string -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

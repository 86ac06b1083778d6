(** A single escrow's book of accounts.

    Each escrow e{_i} is, per the paper, "a bank or a blockchain smart
    contract" holding accounts for its two customers. A {!t} is that bank's
    single-currency book: customer balances plus an {e escrow pool} of
    deposits held pending resolution.

    The book enforces, by construction, the two accounting invariants that
    the paper's safety properties are stated in terms of:

    - {e conservation}: the sum of all balances plus the pool is constant
      across every operation ({!audit});
    - {e single resolution}: a deposit is released or refunded at most once.

    All operations are total and return [result] — an escrow that abides by
    the protocol never performs an invalid operation, and a Byzantine escrow
    that attempts one is recorded as rejected rather than corrupting the
    book. *)

type t
type deposit_id = int

type error =
  | Unknown_account of int
  | Insufficient_funds of { account : int; has : int; needs : int }
  | Unknown_deposit of deposit_id
  | Already_resolved of deposit_id

type deposit_status = Held | Released of int | Refunded

val create : currency:string -> t

val open_account : t -> owner:int -> balance:int -> unit
(** Idempotent for the same owner only if balances match; re-opening with a
    different balance raises. *)

val has_account : t -> int -> bool
val balance : t -> int -> int
(** Balance of an account; 0 for unknown accounts. Allocates nothing. *)

val transfer : t -> src:int -> dst:int -> amount:int -> (unit, error) result
(** Direct transfer between two customers of this escrow. *)

val deposit : t -> from_:int -> amount:int -> (deposit_id, error) result
(** Move [amount] from [from_]'s balance into the escrow pool. *)

val release : t -> deposit_id -> to_:int -> (unit, error) result
(** Pay a held deposit out to [to_] (completing the transfer). *)

val refund : t -> deposit_id -> (unit, error) result
(** Return a held deposit to its depositor. *)

val forget : t -> deposit_id -> unit
(** Drops the record of a released or refunded deposit, so a long-lived
    book holds only deposits someone may still act on. Its id is never
    issued again, and {!deposit_status}, {!release} and {!refund} then
    answer as for an unknown deposit. Held and unknown deposits are left
    alone. Balances, the pool and the journal are unchanged. *)

val deposit_status : t -> deposit_id -> deposit_status option
val pool_total : t -> int
(** Sum of all still-held deposits. O(1): kept as a running sum, raised
    when a deposit is taken and lowered when a held one is released or
    refunded. *)

val audit : t -> (unit, string) result
(** Checks that no balance is negative and that the sum of balances plus
    the held pool equals the initial supply, recomputed from the stored
    balances on every call. O(accounts), and allocates nothing while the
    book is sound, so cheap enough to run after every event. Returns a
    diagnostic on the (never expected) failure; only that allocates. *)

val first_unsound : t array -> int
(** The index of the first book whose {!audit} fails, or [-1] when every
    book is sound. Allocates nothing while they are. *)

val pp_error : Format.formatter -> error -> unit
val pp : Format.formatter -> t -> unit

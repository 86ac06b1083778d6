(** The chain topology of Figure 1: [c0 — e0 — c1 — e1 — … — c(n-1) — e(n-1) — cn].

    [n] escrows e{_0}…e{_{n-1}} and [n+1] customers c{_0}…c{_n}; c{_0} is
    Alice, c{_n} is Bob, and c{_1}…c{_{n-1}} are the connectors (Chloe{_i}).
    Customers c{_{i-1}} and c{_i} hold accounts at — and trust — escrow
    e{_{i-1}}; there are no other trust relations, and value moves only
    between customers of the same escrow.

    Engine pids are assigned customers-first: customer [i] has pid [i]
    (0 ≤ i ≤ n), escrow [i] has pid [n + 1 + i] (0 ≤ i < n). Auxiliary
    participants (transaction manager, notaries) get pids from
    [2n + 1] upward via {!aux_base}. *)

type t

type role =
  | Alice
  | Bob
  | Connector of int  (** [Connector i] is customer c{_i}, 0 < i < n *)
  | Escrow of int
  | Aux of int  (** TM, notaries, … — index from 0 *)

val create : hops:int -> t
(** [hops] = the number of escrows [n] ≥ 1. [hops = 1] is a direct payment
    Alice → e0 → Bob with no connectors. *)

val hops : t -> int
val customer : t -> int -> int
(** [customer t i] is the pid of c{_i}; [0 <= i <= hops]. *)

val escrow : t -> int -> int
(** [escrow t i] is the pid of e{_i}; [0 <= i < hops]. *)

val alice : t -> int
val bob : t -> int
val aux_base : t -> int
(** First pid available for auxiliary participants. *)

val role_of : t -> int -> role option
(** [None] for pids at or above {!aux_base} — callers track their own aux
    roles — unless registered via {!register_aux}. *)

val register_aux : t -> int -> unit
(** Declare pid [aux_base + k] in use, so {!role_of} reports [Aux k]. *)

val payment_count : t -> int
(** Number of payment pids = [2 * hops + 1]. *)

val customers : t -> int list
val escrows : t -> int list

val customer_index : t -> int -> int
(** Inverse of {!customer} on pids; [-1] for a pid that is no customer.
    No option, so the per-dispatch safety checks can ask without
    allocating. *)

val escrow_index : t -> int -> int option

val role_name : t -> int -> string
(** The one lower-case spelling of a pid, as span names and [--fault]
    specs use it: ["alice"], ["bob"], ["chloe1"], ["e0"], ["tm0"] for a
    registered aux pid, ["pid7"] for any other. *)

val pid_of_name : t -> string -> int option
(** The payment pid a name spells: ["alice"], ["bob"], ["chloeI"]
    (customer [I], [0 <= I <= hops]) or ["eI"] (escrow [I],
    [0 <= I < hops]). [pid_of_name t (role_name t p) = Some p] for every
    payment pid [p]. *)

val pp : Format.formatter -> t -> unit

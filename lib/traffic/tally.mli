(** The outcome bookkeeping of a load run ({!Load.run}): payments
    assigned, payments per outcome and the exact multiset of commit
    latencies. A run keeps one tally per protocol of its mix; the run's
    total is their {!merge}, a fresh tally of both tallies' payments.

    [assign] counts a payment that drew the tally's protocol, [add] one
    that ended uncommitted and [commit] one that committed, with the
    ticks from its arrival to Bob's payout. [first_commit] is the least
    committed payment index ([max_int] when none), and [latencies] the
    commit latencies, ascending, each with its multiplicity. *)

type outcome = Committed | Aborted | Rejected | Stuck | Violated

val outcomes : outcome list
val outcome_name : outcome -> string

type t

val create : unit -> t
val assign : t -> unit
val add : t -> outcome -> unit
val commit : t -> payment:int -> latency:int -> unit
val merge : t -> t -> t
val assigned : t -> int
val count : t -> outcome -> int
val first_commit : t -> int
val latencies : t -> (int * int) list

val percentile : t -> int -> int
(** [percentile t q]: the nearest-rank [q]th percentile of the commit
    latencies, the same rank as over the sorted latency array, so [100]
    gives the largest; 0 when nothing committed. *)

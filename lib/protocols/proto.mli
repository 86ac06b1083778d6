(** The protocol vocabulary: the one table of the names a payment
    protocol goes by on every command line ([-p]), in every workload mix
    ([mix=]) and in every repro line, and the {!Runner.protocol} each name
    runs and is judged as. *)

type t = Sync | Naive | Htlc | Weak_single | Committee | Shared | Atomic
(** [Shared] runs the weak protocol with {e no} per-payment TM: all shared
    payments in a load run send their funded reports and abort requests to
    one external batching notary committee (the workload's [committee]
    spec), whose certificates cover many payments at once. *)

val name : t -> string
(** ["sync"], ["naive"], ["htlc"], ["weak"], ["committee"], ["shared"],
    ["atomic"]. *)

val of_string : ?among:t list -> string -> (t, string) result
(** The inverse of {!name} over [among] (default: every protocol); any
    other string is [Error "unknown protocol \"...\""]. *)

val single : t list
(** The protocols a single payment runs on its own, the [-p] set: every
    one but [Shared] (it needs a load run's committee) and [Atomic]. *)

val runner : t -> Runner.protocol
(** The runner protocol a payment of this kind runs as, with the default
    configuration: [Weak_single] and [Shared] as the single-TM weak
    protocol, [Committee] as the weak protocol under a 3f+1 notary
    committee with f = 1. *)

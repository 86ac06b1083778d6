(** Deterministic, splittable pseudo-random number generator.

    A SplitMix64 generator: fast, high-quality for simulation purposes, and —
    crucially for reproducible experiments — {e splittable}: {!split} derives
    an independent child stream, so every process / run / experiment arm can
    own its own generator while the whole fleet is a pure function of one
    root seed. *)

type t
(** A mutable generator. *)

val create : seed:int -> t

val reseed : t -> seed:int -> unit
(** [reseed g ~seed] puts [g] back where [create ~seed] starts, in place:
    it then draws what a fresh [create ~seed] would, and allocates
    nothing. *)

val split : t -> t
(** [split g] advances [g] and returns a fresh generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val split_nth : t -> int -> t
(** [split_nth g k] is the generator that the [(k+1)]-th of [k + 1]
    successive {!split}s of [g] would return, computed in O(1) and without
    advancing [g]. An engine that gives pid [k] the stream [split_nth root
    k] can create processes in any order, at any time. *)

val copy : t -> t
(** [copy g] duplicates the current state; both copies then produce the same
    stream. Used to replay a schedule. *)

val next_int64 : t -> int64
(** Uniform over all 2{^64} values. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]]. Requires [lo <= hi]. *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential_ticks : t -> mean:int -> int
(** A geometric approximation of an exponential delay with the given mean, in
    integer ticks, always at least 1. Used for randomized network latency. *)

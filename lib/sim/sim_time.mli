(** Simulated time.

    All simulation time is kept in integer {e ticks} so that executions are
    exactly reproducible: there is no floating-point rounding anywhere in the
    engine. One tick has no fixed physical meaning; experiments conventionally
    treat one tick as a millisecond. Local (per-process) clock values use the
    same representation but live on a different axis (see {!Clock}). *)

type t = int
(** A point in time, in ticks. Always non-negative in engine-produced
    events. *)

val zero : t

val infinity : t
(** A time later than any reachable simulation time ([max_int]). Used as the
    horizon for "never". *)

val is_infinite : t -> bool

val add : t -> t -> t
(** Saturating addition: [add t d] never overflows past {!infinity}. *)

val sub : t -> t -> t
(** [sub t d] clamps at {!zero}. *)

val scale : t -> num:int -> den:int -> t
(** [scale t ~num ~den] is [ceil (t * num / den)] computed without overflow
    for all simulation-scale values. [den] must be positive. Saturates at
    {!infinity}. *)

val max : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints ticks as an integer, or ["inf"] for {!infinity}. *)

val to_string : t -> string

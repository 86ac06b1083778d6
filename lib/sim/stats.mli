(** Small summary-statistics toolkit for experiment reporting. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val summarize : float list -> summary
(** Summary of a non-empty sample. Raises [Invalid_argument] on [] and on
    samples containing NaN (which would otherwise silently mis-sort). *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p ∈ [0,100]]; linear interpolation between
    order statistics. The array must be sorted ascending. *)

val mean : float list -> float
val stddev : float list -> float

val rate : hits:int -> total:int -> float
(** [hits/total] as a percentage, 0 when [total = 0]. *)

val wilson : hits:int -> total:int -> float * float
(** 95% Wilson score interval for a binomial proportion, as percentages
    [(lo, hi)]. [(0, 100)] when [total = 0]. Experiment tables use it to
    report the uncertainty of violation/success rates. *)

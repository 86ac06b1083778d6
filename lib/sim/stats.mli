(** Small summary-statistics toolkit for experiment reporting. *)

val mean : float list -> float
(** 0 for an empty sample. *)

val rate : hits:int -> total:int -> float
(** [hits/total] as a percentage, 0 when [total = 0]. *)

val wilson : hits:int -> total:int -> float * float
(** 95% Wilson score interval for a binomial proportion, as percentages
    [(lo, hi)]. [(0, 100)] when [total = 0]. Experiment tables use it to
    report the uncertainty of violation/success rates. *)

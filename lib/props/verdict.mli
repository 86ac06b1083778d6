(** Property verdicts.

    Every check yields a {!t}: whether the property was {e applicable} in
    this run (its preconditions — "if Alice and her escrow abide by the
    protocol…" — were met), whether it {e held}, and a human-readable
    witness when it did not. A report is the list of verdicts for one run;
    experiment tables aggregate reports over many runs. *)

type t = {
  property : string;  (** "C", "T", "ES", "CS1", … *)
  applicable : bool;
      (** false when the property's hypotheses exclude this run (e.g. CS1
          when Alice's escrow is Byzantine) — an inapplicable property
          cannot fail *)
  holds : bool;  (** meaningful only when [applicable] *)
  detail : string;  (** witness of failure, or a short confirmation *)
}

type report = t list

val ok : string -> string -> t
val violated : string -> string -> t
val vacuous : string -> string -> t

val all_hold : report -> bool
(** Every applicable property holds. *)

val failures : report -> t list
val holds : report -> string -> bool
(** True if the named property is inapplicable or held. *)

val pp : Format.formatter -> t -> unit
val pp_report : Format.formatter -> report -> unit

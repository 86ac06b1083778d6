(** Plain-text result tables for the experiment harness. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;  (** printed under the table *)
}

val make :
  title:string -> header:string list -> ?notes:string list ->
  string list list -> t

val cell_f : float -> string
(** One decimal. *)

val cell_pct : float -> string
(** "97.5%". *)

val cell_i : int -> string
val cell_b : bool -> string
(** "yes"/"no". *)

val render : Format.formatter -> t -> unit
(** Column-aligned ASCII; header separated by dashes. *)

(** Byzantine quorum systems: which subsets of a committee may certify
    a consensus step, under a declared fault bound.

    A value of type {!t} describes processes [0 .. size t - 1] together
    with a fault bound [f] and a family-specific quorum rule. The two
    laws every usable system must satisfy —

    - {e intersection}: any two quorums share at least [f+1] processes
      (so conflicting certificates would need a correct signer on both);
    - {e availability}: some quorum contains no faulty process (so the
      correct processes can always assemble a certificate) —

    reduce to closed-form inequalities for each family and are checked
    by {!validate}. Consumers ({!Consensus.Dls}, the committee runner)
    refuse systems that fail it. *)

type t =
  | Majority of { n : int; f : int; q : int }
      (** any [q] of [n] processes; [q] defaults to [2f+1] *)
  | Weighted of { weights : int array; f : int; threshold : int }
      (** any set of total weight >= [threshold]; weights positive *)
  | Grid of { rows : int; cols : int; f : int; qr : int; qc : int }
      (** process [i] sits at row [i / cols], column [i mod cols]; a
          quorum needs [qr] fully-present rows and [qc] fully-present
          columns *)

val majority : ?q:int -> n:int -> f:int -> unit -> t
(** [q] defaults to [2f+1] — the classic [n = 3f+1] committee rule. *)

val weighted : ?threshold:int -> weights:int array -> f:int -> unit -> t
(** [threshold] defaults to just over two thirds of the total weight.
    The weight array is copied. *)

val grid : ?qr:int -> ?qc:int -> rows:int -> cols:int -> f:int -> unit -> t
(** [qr] and [qc] default to the smallest side with
    [qr * qc >= f + 1]. *)

val size : t -> int
(** Number of processes the system speaks about. *)

val fault_bound : t -> int
(** The declared [f]. *)

val is_quorum : t -> present:bool array -> bool
(** Does the set [{i | present.(i)}] contain a quorum? [present] must
    have length [size t].

    @raise Invalid_argument on a wrong-length array. *)

val validate : t -> (unit, string) result
(** Structural checks (positive sizes and weights, thresholds in
    range) plus both quorum laws. *)

val family_name : t -> string
(** ["majority"], ["weighted"] or ["grid"]. *)

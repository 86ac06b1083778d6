(** Hashlocks for HTLC-style protocols.

    A secret preimage [s] and its lock [H(s)]: funds can be made releasable
    only to a party presenting [s]. Used by the baseline hashed-timelock
    payment chain (the protocol family the paper's protocols improve on). *)

type preimage
type lock

val fresh : Sim.Rng.t -> preimage
(** A random secret. *)

val lock_of : preimage -> lock
val matches : lock -> preimage -> bool
val pp_lock : Format.formatter -> lock -> unit

val bogus_preimage : unit -> preimage
(** A preimage that matches no honest lock (for Byzantine strategies). *)

(** Collision-resistant-enough hashing for simulation.

    A 128-bit digest built from two independent 64-bit FNV-1a lanes. This is
    {e not} cryptographic strength — it is a stand-in whose only job inside
    the simulator is to make accidental collisions and preimage guessing
    astronomically unlikely, so that hashlocks and signatures behave like
    their real counterparts. The paper only relies on unforgeability and
    binding, which this provides against the simulated adversaries (who, by
    construction, do not brute-force). *)

type t
(** A digest: the two finished 64-bit lanes, packed little-endian into one
    16-byte string, so a digest is a single block of 3 words plus its
    header, with no boxed [int64]. Structural equality and comparison are
    meaningful. *)

val of_string : string -> t
(** [of_string s] is [finish (feed start s)]. *)

(** {1 Resumable hashing}

    A digest can be computed in pieces: feeding [s1] then [s2] gives the
    same digest as feeding [s1 ^ s2]. A state is immutable, so one fed with
    a fixed prefix can be kept and resumed any number of times; that is how
    {!Auth} keys a signer without rehashing its secret per message. *)

type state

val start : state
(** The state before any byte. *)

val feed : state -> string -> state
(** Absorb the bytes of a string; allocates only the returned state. *)

val feed_bytes : state -> bytes -> len:int -> state
(** Absorb the first [len] bytes of a buffer, as {!feed} does a string of
    them: a caller can assemble a message in a reused scratch buffer and
    hash it in one pass. Raises [Invalid_argument] if [len] is out of
    bounds. *)

val finish : state -> t

val finish_bytes : state -> bytes -> len:int -> t
(** [finish (feed_bytes st buf ~len)] in one pass: only the digest
    allocates. This is how {!Auth.sign_value} makes a MAC over a statement
    written into a scratch buffer. Raises [Invalid_argument] if [len] is out
    of bounds. *)

val matches : state -> string -> t -> bool
(** [matches st s d] is [equal (finish (feed st s)) d], computed in place:
    it allocates nothing, neither the fed state nor the digest. This is
    how {!Auth.verify} checks a MAC. *)

val matches_bytes : state -> bytes -> len:int -> t -> bool
(** {!matches} over the first [len] bytes of a buffer: how
    {!Auth.verify_value} checks a statement where it was written. Allocates
    nothing; raises [Invalid_argument] if [len] is out of bounds. *)

val equal : t -> t -> bool
val to_hex : t -> string

val short : t -> string
(** First 8 hex chars — for logs. *)

val hex64 : int64 -> string
(** Unsigned lowercase hex with no leading zeros, as [Printf "%Lx"]. *)

val put_hex64 : bytes -> pos:int -> int64 -> int
(** Write {!hex64} of the value into the buffer at [pos] (up to 16 bytes)
    and return the position after it. *)

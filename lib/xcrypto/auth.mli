(** Simulated digital signatures — the paper's "Byzantine model with
    authentication".

    Signing authority is a {e capability}: holding a {!signer} is what lets
    code sign as that identity. Honest processes receive exactly their own
    signer; Byzantine processes can attempt forgeries by fabricating
    signature bytes, and verification rejects them. This reproduces the
    authenticated Byzantine model without real cryptography: within the
    simulation, unforgeability holds by construction (the MAC secret never
    leaves this module), and tests assert that fabricated signatures fail
    {!verify}. *)

type id = int
(** Identities coincide with engine pids. *)

type signature
type signer
type registry

val create : seed:int -> registry

val reset : registry -> seed:int -> unit
(** [reset reg ~seed] makes [reg] what [create ~seed] returns, in place:
    no id is registered and the stream restarts, so the same ids
    registered in the same order get the same keys, and so every MAC,
    that a fresh registry's would. The table keeps its buckets. *)

val register : registry -> id -> signer
(** Mint the signing capability for [id]. Each id can be registered once;
    re-registering raises. The key is derived from two draws of the
    registry's seeded stream, so a registry mints the same keys for the
    same ids in the same order. *)

val signer_of : registry -> id -> signer
(** [id]'s signer: the one already minted, or a fresh {!register}. A
    lookup of a registered id allocates nothing. *)

val signer_id : signer -> id

val sign : signer -> string -> signature
val verify : registry -> id -> string -> signature -> bool
(** [verify reg id msg s]: was [s] produced by [id]'s signer over exactly
    [msg]? The check allocates nothing: the registry is keyed by int, and
    the MAC is recomputed from the signer's key state and compared in
    place ({!Hash.matches}), without building a state or a digest. *)

val forged : id -> signature
(** A fabricated signature claiming to be from [id]. Always fails
    {!verify} — provided for Byzantine strategies and negative tests. *)

val signature_mac : signature -> Hash.t
(** The MAC a signature carries, [Hash.finish (Hash.feed key msg)] for the
    signer's key state [key]. A signature is public, so this reveals
    nothing secret. *)

(** {1 Statement writers}

    A signed value's statement is not built as a string. A {e writer}
    [put buf v] writes [v]'s statement at the start of [buf] and returns
    its length; {!sign_value} and {!verify_value} run it into a per-domain
    scratch buffer and hash the bytes where they were written. When the
    statement is longer than [buf], the writer still returns its full
    length, and may leave [buf] in any state: the caller grows the buffer
    and runs the writer again, so no length bound is assumed. The helpers
    below keep that rule: each [put_* buf pos x] writes its piece at [pos]
    only if all of it fits, and returns the position after the piece. A
    writer must give equal payloads the same bytes every time it runs. *)

val put_char : bytes -> int -> char -> int
val put_string : bytes -> int -> string -> int

val put_int : bytes -> int -> int -> int
(** The decimal digits of [string_of_int n]. *)

val statement : (bytes -> 'a -> int) -> 'a -> string
(** [statement put v] is the statement [put] writes for [v], as a string:
    for a statement that must be kept, such as a value serialised once
    and blitted into many. It allocates only the string, and [put] may
    itself call [statement]. *)

(** {1 Signed values} *)

type 'a signed = private { payload : 'a; author : id; signature : signature }

val sign_value : signer -> put:(bytes -> 'a -> int) -> 'a -> 'a signed
(** Signs the statement [put] writes for the payload. It allocates the
    MAC's digest, the signature and the signed record, and nothing else
    once the scratch buffer has grown to the statement's length. *)

val verify_value : registry -> put:(bytes -> 'a -> int) -> 'a signed -> bool
(** Checks the signature against the claimed [author] and the statement
    [put] writes for the payload — a tampered payload or wrong author
    fails. The statement is written into the scratch buffer and hashed
    and compared in place ({!Hash.matches_bytes}), so a check allocates
    nothing. *)

val forge_value : author:id -> 'a -> 'a signed
(** A signed value with a fabricated signature; fails {!verify_value}. *)

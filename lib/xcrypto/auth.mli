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

(** {1 Signed values} *)

type 'a signed = private { payload : 'a; author : id; signature : signature }

val sign_value : signer -> ser:('a -> string) -> 'a -> 'a signed
val verify_value : registry -> ser:('a -> string) -> 'a signed -> bool
(** Checks the signature against the claimed [author] and re-serialized
    payload — a tampered payload or wrong author fails. *)

val forge_value : author:id -> 'a -> 'a signed
(** A signed value with a fabricated signature; fails {!verify_value}. *)

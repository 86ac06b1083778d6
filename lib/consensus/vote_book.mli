(** The vote books of one consensus instance, for one kind of vote.

    A book sorts signed votes into {e buckets}, one per [(round, value)]
    voted for, and keeps a running tally in each: the replicas whose vote
    verified, and whether they already form a quorum of the quorum
    system. {!Dls} keeps one book for echoes and one for commit votes.

    A bucket is opened by the first vote for its [(round, value)] that
    verifies; it serialises that vote's statement once, and every later
    vote for it is checked against that one string. A bucket keeps its
    signatures in an array indexed by replica, beside a presence vector,
    and the books are a short list of buckets, since an instance rarely
    sees more than two rounds. So recording a vote in an open bucket
    allocates nothing unless it completes the quorum. *)

type ('v, 'body) t

type 'body tally =
  | Dropped  (** unknown author, or a signature that does not verify *)
  | Counted  (** recorded; its bucket holds no quorum yet *)
  | Reached of 'body Xcrypto.Auth.signed list
      (** this vote completed its bucket's quorum: the quorum's
          signatures, one per replica, in replica order *)
  | Past_quorum  (** recorded in a bucket that already held a quorum *)

val create :
  qs:Quorum_system.t ->
  auth_ids:int array ->
  registry:Xcrypto.Auth.registry ->
  equal:('v -> 'v -> bool) ->
  ser:(int -> 'v -> string) ->
  ('v, 'body) t
(** Empty books for the replicas [auth_ids] (the Auth identity of each
    replica index of [qs]). [ser round value] is the statement a vote for
    [(round, value)] signs; as for {!Dls.config}, equal values must
    serialise equally and unequal ones differently. *)

val replica_index : int array -> int -> int
(** [replica_index auth_ids author] is the replica index of an Auth
    identity, or -1 for an author outside the committee. *)

val record :
  ('v, 'body) t -> round:int -> value:'v -> 'body Xcrypto.Auth.signed ->
  'body tally
(** Record a vote for [(round, value)], which the caller reads from the
    vote's payload. The vote counts when its author is a replica and its
    signature verifies against the bucket's statement; a replica counts
    once however often it votes, and a later vote of the same replica
    replaces its signature. *)

val holds : ('v, _) t -> round:int -> 'v -> bool
(** Whether the votes for [(round, value)] already form a quorum. *)

val clear : (_, _) t -> unit
(** Drop every bucket. *)

(** The vote books of one consensus instance, for one kind of vote.

    A book sorts signed votes into {e buckets}, one per [(round, value)]
    voted for, and keeps a running tally in each: the replicas whose vote
    verified, and whether they already form a quorum of the quorum
    system. {!Dls} keeps one book for echoes and one for commit votes.

    Each vote is checked against its own statement, which the book's
    writer writes into {!Xcrypto.Auth}'s scratch buffer, where it is
    hashed in place; a bucket is opened by the first vote for its
    [(round, value)] that verifies. A bucket keeps its signatures in an
    array indexed by replica, beside a presence vector, and the books are
    a short list of buckets, since an instance rarely sees more than two
    rounds. So recording a vote in an open bucket allocates nothing unless
    it completes the quorum. *)

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
  put:(bytes -> 'body -> int) ->
  ('v, 'body) t
(** Empty books for the replicas [auth_ids] (the Auth identity of each
    replica index of [qs]). [put] writes the statement a vote signs (see
    {!Xcrypto.Auth.sign_value}); as for {!Dls.config}, votes for equal
    values must have equal statements and votes for unequal ones
    different statements. *)

val replica_index : int array -> int -> int
(** [replica_index auth_ids author] is the replica index of an Auth
    identity, or -1 for an author outside the committee. *)

val record :
  ('v, 'body) t -> round:int -> value:'v -> 'body Xcrypto.Auth.signed ->
  'body tally
(** Record a vote for [(round, value)], which the caller reads from the
    vote's payload. The vote counts when its author is a replica and its
    signature verifies against its statement; a replica counts
    once however often it votes, and a later vote of the same replica
    replaces its signature. *)

val holds : ('v, _) t -> round:int -> 'v -> bool
(** Whether the votes for [(round, value)] already form a quorum. *)

val clear : (_, _) t -> unit
(** Drop every bucket. *)

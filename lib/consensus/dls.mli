(** Single-shot Byzantine consensus for partial synchrony.

    The paper (§3) proposes implementing the weak protocol's transaction
    manager as "a collection of notaries … of which less than one-third is
    assumed to be unreliable. They would run a consensus algorithm for
    partial synchrony such as the one from Dwork, Lynch & Stockmeyer."

    This module is that algorithm, in the DLS tradition as refined by
    PBFT/Tendermint, parametrized over a {!Quorum_system.t} rather than a
    hardwired [2f + 1]-of-[3f + 1] count: replicas proceed in rounds with
    a rotating leader. A round's leader proposes a value; replicas
    {e echo} it with a signature; a quorum of signed echoes (as judged by
    [Quorum_system.is_quorum] over the signer set) forms a {e quorum
    certificate} (QC) that locks the value and yields a signed {e commit}
    vote; a quorum of commit votes decides and itself forms a {e decision
    certificate} verifiable by outsiders (that is how the notary
    committee's χc / χa certificates are checked by escrows and
    customers). [Quorum_system.majority ~n:(3 * f + 1) ~f ()] recovers
    the classic thresholds exactly; weighted and grid systems change who
    must sign, not the protocol.

    Lock handling follows the DLS discipline that makes this safe under
    full asynchrony: a replica abandons a lock only when shown a valid QC
    for a conflicting value from a {e higher} round — and once a value is
    decided, no such QC can ever be assembled, because the [f + 1] honest
    replicas locked on the decided value refuse to echo anything else.
    Termination holds after GST with geometrically growing round timeouts:
    locks spread via [New_round] messages, so the first post-GST honest
    leader proposes the highest lock and every honest replica echoes it.

    The module is a {e pure state machine}: it consumes inputs and returns
    effects, so it can be driven by the simulator, by unit tests, or by
    adversarial schedules directly. *)

type round = int

type 'v echo_body = { e_round : round; e_value : 'v }
type 'v commit_body = { c_round : round; c_value : 'v }

type 'v qc = {
  q_round : round;
  q_value : 'v;
  q_sigs : 'v echo_body Xcrypto.Auth.signed list;
}
(** A quorum certificate: a quorum's worth of signed echoes for one
    (round, value). *)

type 'v decision_cert = {
  d_value : 'v;
  d_round : round;
  d_sigs : 'v commit_body Xcrypto.Auth.signed list;
}
(** A quorum's worth of signed commit votes: transferable proof that
    [d_value] was decided. *)

type 'v msg =
  | Propose of { round : round; value : 'v; justif : 'v qc option }
  | Echo of 'v echo_body Xcrypto.Auth.signed
  | Commit of 'v commit_body Xcrypto.Auth.signed
  | New_round of { round : round; locked : 'v qc option }

type 'v effect =
  | Send of { to_ : int; m : 'v msg }  (** [to_] is a replica index *)
  | Broadcast of 'v msg  (** to every replica, including self *)
  | Set_round_timer of { round : round; after : Sim.Sim_time.t }
      (** Ask the host to call {!on_round_timeout} for [round] after [after]
          local ticks. Stale timers (for past rounds) are ignored. *)
  | Decided of 'v decision_cert

type 'v config = {
  qs : Quorum_system.t;
      (** who may certify: replica indices are the quorum system's
          process indices; must pass [Quorum_system.validate] *)
  self : int;  (** this replica's index in [0 .. size qs - 1] *)
  auth_ids : int array;  (** Auth identity of each replica index *)
  registry : Xcrypto.Auth.registry;
  signer : Xcrypto.Auth.signer;  (** must match [auth_ids.(self)] *)
  ser : 'v -> string;
      (** serialization of values for signing, the value part of every
          echo and commit statement; a value seen by many signers (a
          batch) should be serialised once and memoised. Precondition:
          [equal a b <=> ser a = ser b]. Votes for equal values count in
          one vote bucket and one certificate, each checked against its
          own statement; that is sound only if equal values serialise
          equally, so that every vote of a certificate signs the one
          statement an outsider checks. The converse keeps a signature
          over one value from counting for another. *)
  equal : 'v -> 'v -> bool;
  validate : 'v -> bool;  (** external validity of proposed values *)
  base_timeout : Sim.Sim_time.t;  (** round [r] times out after
                                      [base_timeout * 2^min(r,16)] *)
}

val ser_echo : ('v -> string) -> bytes -> 'v echo_body -> int
(** [ser_echo ser] writes the signed statement of an echo,
    ["echo|<round>|<value>"], as a writer of {!Xcrypto.Auth.sign_value}:
    the framing is written in front of [ser value], never concatenated
    with it. *)

val ser_commit : ('v -> string) -> bytes -> 'v commit_body -> int
(** [ser_commit ser] writes the signed statement of a commit vote,
    ["commit|<round>|<value>"], as {!ser_echo} does an echo's. *)

type 'v t

val create : 'v config -> 'v t
val leader_of : n:int -> round -> int

val start : 'v t -> my_value:'v -> 'v effect list
(** Begin round 0 with this replica's initial preference. *)

val join : 'v t -> 'v effect list
(** Begin participating (echoing, voting, running round timers) without a
    preference of one's own — for a replica dragged in by peer traffic
    before it has seen any trigger. It proposes nothing while
    preference-less. *)

val update_preference : 'v t -> 'v -> 'v effect list
(** Set (or change) the preference; if this replica leads the current round
    and has not proposed yet, it proposes now. A held lock still takes
    precedence when proposing. *)

val on_msg : 'v t -> from_:int -> 'v msg -> 'v effect list
(** [from_] is the authentic sender's replica index (channel
    authentication); forged signatures inside the message are detected and
    the message dropped. *)

val on_round_timeout : 'v t -> round -> 'v effect list

val decided : 'v t -> 'v decision_cert option
val locked : 'v t -> 'v qc option

val tally : 'v t -> [ `Echo | `Commit ] -> round:round -> 'v -> bool
(** Whether this replica's echo (or commit) votes for [(round, value)]
    already form a quorum. The tally runs as votes arrive: a vote counts
    once its signature verifies against the serialised vote and its
    author is a replica, and a replica counts once however often it
    votes. The first vote that completes a quorum builds the bucket's one
    QC (or decision certificate); a QC built from this replica's own
    votes is adopted without re-verification, since each of its
    signatures was verified on arrival. The books are dropped at the
    decision, after which this is [false]. *)

val verify_decision : 'v config -> 'v decision_cert -> bool
(** Verifiable by any outsider holding the registry and the committee
    roster — this is what makes the committee's decision a transferable
    certificate in the paper's sense. [verify_decision cfg] builds the
    statement writer once; apply it once and keep the resulting checker
    to verify many certificates. *)

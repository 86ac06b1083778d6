(** A minimal authority blockchain hosting a replicated smart contract —
    the paper's second transaction-manager instantiation ("a smart
    contract running on a permissionless blockchain shared by every
    customer").

    Model: [n] validators take turns proposing blocks, height [h]'s
    proposer being [h mod n]; a proposer packages its mempool into the
    next block; every validator appends the (unique) well-formed block
    for its current height. Clients submit transactions to all
    validators, so mempools converge and the designated proposer always
    has the pending work. One proposer per height means there is exactly
    one chain — every validator replays the same transaction sequence,
    which is what the customers' trust in "the blockchain" amounts to in
    the paper. (The chain itself is trusted infrastructure here; tolerance
    to {e unreliable} TM members is the notary committee's job, see
    {!Dls}.) Round timers merely pace production: a leader with pending
    transactions proposes at once, otherwise the tick is idle.

    The {e contract} is a deterministic state machine [apply] folded over
    the ordered transactions of accepted blocks; its emitted events are
    what the host broadcasts to subscribers. Determinism + a single chain
    = every validator derives the same events (the CC property for the
    chain-hosted TM falls out of exactly this).

    Like {!Dls}, the module is a pure state machine driven through
    effects, so the simulator, tests, and adversarial schedules can all
    host it. *)

type round = int

type 'tx block = {
  height : int;
  round : round;
  proposer : int;  (** validator index *)
  txs : 'tx list;
}

type 'tx msg =
  | Submit of 'tx  (** client → validator: mempool submission *)
  | Announce of 'tx block  (** validator → validators: a new block *)

type ('tx, 'ev) effect =
  | Broadcast of 'tx msg  (** to every validator, including self *)
  | Set_round_timer of { round : round; after : Sim.Sim_time.t }
  | Emit of 'ev list
      (** contract events from newly accepted transactions — the host
          forwards them to whoever subscribes *)

type ('tx, 'st, 'ev) config = {
  n : int;  (** validators *)
  self : int;
  block_interval : Sim.Sim_time.t;  (** round duration before a skip *)
  initial_state : 'st;
  apply : 'st -> 'tx -> 'st * 'ev list;
      (** MUST be deterministic and total; exceptions poison the chain *)
  tx_key : 'tx -> string;
      (** dedupe for mempool and replay: two transactions are the same iff
          their keys are equal *)
}

type ('tx, 'st, 'ev) t

val create : ('tx, 'st, 'ev) config -> ('tx, 'st, 'ev) t

val start : ('tx, 'st, 'ev) t -> ('tx, 'ev) effect list
(** Arm round 0. *)

val on_msg :
  ('tx, 'st, 'ev) t -> from_:int option -> 'tx msg -> ('tx, 'ev) effect list
(** [from_] is the authentic sender's validator index, or [None] for
    client submissions. Announcements from non-validators are ignored. *)

val on_round_timeout :
  ('tx, 'st, 'ev) t -> round -> ('tx, 'ev) effect list

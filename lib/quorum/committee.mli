(** Batched, pipelined notary committee over {!Consensus.Dls}.

    One committee — any validated {!Quorum_system.t} — decides a stream
    of payment verdicts. Verdicts batch into {e slots}; each slot is one
    single-shot DLS instance deciding an ordered [batch], and slots are
    pipelined up to a configured depth so slot [s+1] is proposed while
    slot [s]'s commit votes gather. One certificate therefore covers up
    to [batch_cap] payments — Herlihy–Liskov–Shrira-style cross-chain
    deal batching applied to the paper's notary committee.

    Replica 0 is the sequencer: it queues incoming verdict requests,
    drains them into batches, and opens slots (it is also every slot's
    round-0 leader). Followers join slots lazily on first peer message
    and apply structural validity only (well-formed batch) — per-item
    justification is the host's business, and the decision certificate
    is what outsiders verify.

    A replica's memory follows the slots and items in flight, not the run:
    a decided slot is kept only as a tombstone, followers keep no
    per-item books, and the sequencer keeps an item until the host
    {!forget}s it.

    Like {!Consensus.Dls}, this is a pure state machine returning
    effects; the host supplies the current sim-time [now] (for
    certificate-latency accounting) and routes messages/timers. *)

module Dls = Consensus.Dls

type verdict = { item : int; commit : bool }
(** One payment's fate: [item] is a host-chosen non-negative id. *)

type batch = verdict list

type config = {
  qs : Quorum_system.t;  (** must pass [Quorum_system.validate] *)
  self : int;  (** this replica's index in [0 .. size qs - 1] *)
  auth_ids : int array;  (** Auth identity of each replica index *)
  registry : Xcrypto.Auth.registry;
  signer : Xcrypto.Auth.signer;
  batch_cap : int;  (** max verdicts per certificate; >= 1 *)
  pipeline : int;  (** max concurrently undecided slots; >= 1 *)
  base_timeout : Sim.Sim_time.t;  (** per-slot DLS round-0 timeout *)
}

type msg = { slot : int; dm : batch Dls.msg }

type effect =
  | Send of { to_ : int; m : msg }  (** [to_] is a replica index *)
  | Broadcast of msg  (** to every replica, including self *)
  | Set_slot_timer of { slot : int; round : int; after : Sim.Sim_time.t }
      (** ask the host to call {!on_slot_timeout} after [after] ticks *)
  | Certified of { slot : int; cert : batch Dls.decision_cert }
      (** this replica assembled (or received) the slot's decision *)

type t

val create : config -> t
(** @raise Invalid_argument on an invalid quorum system or degenerate
    batching parameters. *)

val request : t -> now:Sim.Sim_time.t -> verdict -> effect list
(** Submit one verdict to the sequencer. The first verdict per item wins;
    duplicates (including conflicting ones, and any verdict for an item
    already {!forget}ed) return []. The sequencer may open one or more
    slots at once; a follower keeps no per-item books and returns []. *)

val on_msg : t -> now:Sim.Sim_time.t -> from_:int -> msg -> effect list
(** [from_] is the authentic sender's replica index. A message for a
    decided slot returns [] and never re-opens it. *)

val on_slot_timeout : t -> now:Sim.Sim_time.t -> slot:int -> round:int -> effect list

type decision = {
  fate : bool;  (** [true]: commit *)
  decided_in : int;  (** the slot that certified it *)
  cert : batch Dls.decision_cert;  (** that slot's certificate *)
}
(** An item's decided fate, the slot that certified it and that slot's
    certificate. *)

val decision_of : t -> item:int -> decision option
(** The sequencer's record of a decided item; [None] on a follower, for
    an undecided item and for a forgotten one. *)

val forget : t -> item:int -> unit
(** The host will not ask about this decided item again: the sequencer
    drops its record (and, with the last item of its batch, the batch's
    certificate) but still refuses a later verdict for it. No-op for an
    item without a decision. *)

type stats = {
  certs : int;  (** slots decided *)
  verdicts : int;  (** verdicts across their certificates *)
  max_batch : int;  (** largest single certificate *)
  rounds : int;  (** DLS rounds summed over decided slots *)
  cert_lat_sum : int;
      (** ticks from this replica opening (or joining) each decided slot to
          its certificate, summed *)
  cert_lat_max : int;
}

val stats : t -> stats
(** Running aggregates over the slots this replica decided. *)

val slot_count : t -> int
(** Slots this replica has seen opened (decided or not). *)

val verify_cert : config -> batch Dls.decision_cert -> bool
(** Outsider verification: quorum signatures over the batch. Only
    [qs], [auth_ids], [registry] matter; [self]/[signer] are unused.
    [verify_cert cfg] builds the consensus config once; apply it once and
    keep the resulting checker to verify many certificates. *)

val ser_batch : batch -> string
(** The signing serialization, exposed for tests. *)

val batch_equal : batch -> batch -> bool

val tag_of_msg : msg -> string
(** ["quorum:propose" | "quorum:echo" | "quorum:commit" |
    "quorum:new-round"] — for engine message tagging. *)

val pp_msg : Format.formatter -> msg -> unit

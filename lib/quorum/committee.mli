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
(** Submit one verdict. The first verdict per item wins; duplicates
    (including conflicting ones) return []. On the sequencer this may
    open one or more slots immediately. *)

val on_msg : t -> now:Sim.Sim_time.t -> from_:int -> msg -> effect list
(** [from_] is the authentic sender's replica index. *)

val on_slot_timeout : t -> now:Sim.Sim_time.t -> slot:int -> round:int -> effect list

val verdict_of : t -> item:int -> (bool * int) option
(** The decided fate of an item, with the slot that certified it. *)

val cert_of_slot : t -> int -> batch Dls.decision_cert option

val cert_latency : t -> int -> Sim.Sim_time.t option
(** Ticks from this replica opening the slot to its certificate, for a
    decided slot. *)

val decided_slots : t -> int
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

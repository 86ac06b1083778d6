(** One payment's facts, folded from its trace entries, and the single
    definition of the payment-level properties C, CS1–CS3, CS1w, CS2w and
    CC over them.

    Every harness feeds {!observe}: the runner with a finished trace, the
    chaos monitor entry by entry, the load harness once per protocol
    instance. Pids are {e local}, numbered as {!Protocols.Topology} numbers
    one payment (customer [i] is pid [i], escrow [i] is [hops + 1 + i]);
    [base] maps the engine pids of [Sent] entries back. Harnesses differ
    only in the {!judge} they supply. *)

type t

val create : base:int -> hops:int -> nprocs:int -> t
(** An empty fold for a payment over [hops] escrows whose local pid 0 is
    engine pid [base], keeping per-pid facts for local pids below
    [nprocs]. *)

val reset : t -> base:int -> unit
(** [reset f ~base] empties [f] in place for another payment of the same
    shape, whose local pid 0 is engine pid [base]: it then holds what
    [create ~base] with [f]'s hops and [nprocs] would. *)

val observe : t -> (Protocols.Msg.t, Protocols.Obs.t) Sim.Trace.entry -> unit
(** Fold one trace entry. O(1). *)

(** {1 Facts} *)

val terminated : t -> int -> (Sim.Sim_time.t * string) option
(** The pid's first [Terminated] observation: time and outcome tag. *)

val flow : t -> int -> int
(** Net ledger flow: releases and refunds received minus deposits made. *)

val made_payment : t -> int -> bool
(** The pid sent [Money] or [Htlc_setup]. *)

val issued_cert : t -> int -> bool

val rejections : t -> (int * string) list
(** [(pid, what)] of every [Rejected] observation, chronological. *)

val paid_at : t -> Sim.Sim_time.t
(** Time of the first release to Bob, or [-1]. *)

val settled_at : t -> Sim.Sim_time.t
(** Time the last customer terminated, or [-1]. *)

(** {1 Checks}

    CS1–CS3, CS1w and CS2w bind only terminated honest customers whose
    escrows abide, and are vacuous otherwise. *)

type judge = {
  facts : t;
  honest : int -> bool;  (** the pid abides by the protocol *)
  net : int -> int;  (** customer net position *)
  tm_trusted : bool;  (** the transaction manager is within its fault bound *)
  well_formed : (unit, string) result;  (** C's structural clause *)
}

val escrows_abide : judge -> int -> bool
(** Both escrows adjacent to customer [i] abide. *)

val check_c : ?excused:(string -> bool) -> judge -> Verdict.t
(** The automata are well formed and no honest pid had an action
    rejected, save for reasons [excused] accepts (default: none). *)

val check_cs1 : judge -> Verdict.t
(** Alice got her money back or holds χ. *)

val check_cs2 : judge -> Verdict.t
(** Bob was paid or issued no χ. *)

val check_cs3 : judge -> Verdict.t
(** Every connector is whole. *)

val check_cc : judge -> Verdict.t
(** Honest TM participants never decided both ways, and no customer
    accepted both χc and χa. *)

val check_cs1_weak : judge -> Verdict.t
(** Under a trusted TM, Alice got her money back or holds χc. *)

val check_cs2_weak : judge -> Verdict.t
(** Under a trusted TM, Bob was paid or holds χa. *)

(** {1 Definition selection} *)

type definition = Def1 | Def2

val definition : Protocols.Runner.protocol -> definition
(** The one place a protocol is mapped to the Definition it is judged by:
    the weak (Theorem 3) and atomic protocols by Definition 2, the rest
    by Definition 1. *)

val safety :
  ?excused:(string -> bool) ->
  ?preimage_is_receipt:bool ->
  Protocols.Runner.protocol ->
  (string * (judge -> Verdict.t)) list
(** The Definition's payment-level safety checks, named by property: C,
    CS1, CS2, CS3, or C, CC, CS1w, CS2w, CS3. [excused] goes to
    {!check_c}. With [preimage_is_receipt] (default false) HTLC's CS1 is
    vacuous: the load harness counts the preimage Alice learns when her
    hashlock is claimed as her receipt, while the paper, and every other
    harness, holds that HTLC gives her no χ. *)

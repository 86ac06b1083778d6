(** Workload specifications for multi-payment load runs.

    A workload is pure data: how many payments, over which topology, which
    protocol mix, how they arrive, and under which admission policy they
    contend for the shared escrow liquidity. {!Load} turns a workload plus
    a seed into one deterministic engine run.

    Workloads serialize to a one-line [key=value] grammar so a load report
    can embed its exact spec and every run replays bit-for-bit:

    {v
    payments=1000 hops=2 value=1000 commission=10 arrival=poisson:40
    mix=sync:1,weak:1 policy=reserve cap=64 liquidity=0 patience=2000
    stuck=0 drift=10000 gst=none
    v} *)

type arrival =
  | Poisson of { gap : int }
      (** open loop: inter-arrival gaps are 1 + Exp(gap) ticks *)
  | Closed of { clients : int; think : int }
      (** closed loop: [clients] clients, each issuing its next payment
          [think] ticks after its previous one settles *)
  | Burst of { size : int; every : int }
      (** [size] simultaneous arrivals every [every] ticks *)
  | Ramp of { gap_hi : int; gap_lo : int }
      (** open loop with the mean gap shrinking linearly from [gap_hi]
          (first arrival) to [gap_lo] (last): a ramp-up to peak rate *)

type proto = Protocols.Proto.t =
  | Sync | Naive | Htlc | Weak_single | Committee | Shared | Atomic
(** Re-exported from {!Protocols.Proto}, the table that names them. *)

type committee = {
  c_family : string;  (** ["majority"], ["weighted"] or ["grid"] *)
  c_size : int;  (** replicas (grid: must be a perfect square) *)
  c_f : int;  (** Byzantine fault bound the quorum system tolerates *)
  c_batch : int;  (** max verdicts per certificate *)
  c_pipeline : int;  (** max concurrently undecided slots *)
  c_faulty : int;
      (** replicas actually failed in the run (crash-silent), placed at
          indices [1 .. c_faulty] — never the sequencer; <= [c_f] *)
}
(** The shared committee's shape — pure data; {!quorum_system} builds the
    validated {!Quorum_system.t} from it. *)

type policy =
  | Reserve
      (** admission reserves every leg's amount on the payer accounts, so
          in-protocol deposits never fail; contention shows up as queueing
          and admission rejections. Safe for every protocol. *)
  | Optimistic
      (** admission checks nothing; deposits race for the shared balances
          and losers see real [Insufficient_funds] rejections. Only legal
          for funding-checked protocols (weak, committee, atomic, htlc)
          whose escrows stop a leg on a failed deposit. *)

type t = {
  payments : int;
  hops : int;
  value : int;
  commission : int;
  arrival : arrival;
  mix : (proto * int) list;
      (** protocol weights, one entry per protocol; must be non-empty *)
  policy : policy;
  cap : int;  (** max payments in flight per escrow; 0 = unlimited *)
  liquidity : int;
      (** payer-account funding, in multiples of one payment's leg amount;
          0 = [payments] (ample — no liquidity contention) *)
  patience : int;
      (** ticks an arrived payment may wait in the admission queue before
          it is rejected *)
  stuck_after : int;
      (** ticks after admission before an unsettled payment is classified
          stuck; 0 = derived from the mix's protocol horizons *)
  drift_ppm : int;
  gst : int option;  (** [Some g]: partially-synchronous network with GST g *)
  topology : Routing.Topology.t option;
      (** [Some t]: payments route source→sink over the escrow graph [t]
          instead of the linear [hops] chain (which [t] then supersedes);
          liquidity and commissions come from the graph's edges. [None]
          preserves the linear behavior bit-for-bit. *)
  route : Routing.Router.strategy;
      (** path-selection strategy under a graph topology *)
  splits : int;
      (** max edge-disjoint paths one payment may split across; 1 =
          single-path routing *)
  committee : committee option;
      (** the shared batching committee; required iff [Shared] is in the
          mix, on linear and graph workloads alike *)
}

val committee_to_string : committee -> string

val quorum_system : committee -> (Quorum_system.t, string) result
(** The committee's quorum system — [majority] and [weighted] (unit
    weights) over [c_size] replicas, [grid] over a square of side
    [sqrt c_size] — checked by {!Quorum_system.validate}. [Error] (naming
    [committee]) for a non-square grid, an unknown family, or a system
    that breaks the Byzantine quorum laws, such as [majority:4:2:…] whose
    quorum of 2f+1 = 5 exceeds its 4 replicas. *)

val max_hops : int
(** 999, the longest path a [topology=] graph allows (it has at most 1000
    nodes): the upper bound on [hops] here and on every command's
    [--hops]. *)

val validate : t -> (unit, string) result
(** Structural sanity plus the policy/protocol compatibility rules:
    [Optimistic] forbids [Sync]/[Naive] in the mix (their escrows barrel
    ahead on a failed deposit), [Naive] requires [drift_ppm = 0] (the
    naive protocol is only correct without drift — E3's point), and a
    graph [topology] requires [Reserve] (routed admission reserves each
    split's legs against per-edge liquidity) with the [liquidity] knob
    left at 0 (edge liquidity lives in the topology spec). *)

val to_string : t -> string
(** The one-line grammar above; [of_string (to_string w)] = [Ok w] up to
    topology normalization. The [topology=]/[route=]/[splits=] keys are
    printed only when a topology is set, and [committee=] only when a
    shared committee is configured, so existing workloads keep their
    historical spec lines byte-for-byte. *)

val of_string : string -> (t, string) result
(** Folds the line's [key=value] fields, left to right, over the
    defaults, then {!validate}s the result. Errors name the offending key.
    The defaults: 1 payment, 2 hops, value 1000, commission 10, poisson
    gap 40, mix [sync:1], reserve policy, unlimited cap, ample liquidity,
    patience 2000, derived stuck deadline, drift 10000 ppm, synchronous
    network, no topology (linear), shortest-cost routing, 1 split. *)

val of_command_line :
  base:string -> ?spec:string -> (string * string) list -> (t, string) result
(** The one front door for a command's workload: the fields of the
    command's [base] line, then those of [spec], then one field per
    [(flag, value)] pair, later keys winning, then one {!validate}. The
    flag that sets a key is [--KEY], but [--stuck-after] for [stuck];
    [committee] has no flag. A flag's value is a single field, never
    split into further keys. Never raises; each error names where it
    came from:
    ["bad --spec: …"] and ["bad --arrival: …"] for one field,
    ["bad workload: …"] for the {!validate} check of the whole. *)

val mix_seq : t -> seed:int -> proto Seq.t
(** The per-payment protocol assignment in payment order: deterministic
    weighted draws, one per payment, from a stream seeded by [seed] alone.
    Persistent (every traversal yields the same protocols) and O(1) in
    memory, however many payments the workload has. *)

val assign_mix : t -> seed:int -> proto array
(** {!mix_seq} as an array. *)

val arrival_seq : t -> seed:int -> int Seq.t option
(** Open-loop arrival ticks per payment (monotone), or [None] for the
    closed-loop arrival process (arrival times are settle-driven).
    Deterministic in [seed]; persistent and O(1) in memory like
    {!mix_seq}. *)

val pp : Format.formatter -> t -> unit

(** Cross-chain deals (Herlihy, Liskov & Shrira 2019), as summarised in §5
    of the paper.

    A deal is a matrix [M] where [M(i,j)] lists an asset to be transferred
    from party [i] to party [j]; equivalently a directed graph with an arc
    i → j labelled [v] iff [M(i,j)] = v ≠ 0. For each asset type a separate
    blockchain acts as escrow.

    A {e payoff} is acceptable to party [i] if she either receives all
    assets [M(·,i)] while parting with all [M(i,·)] ({e all}), or loses
    nothing at all ({e nothing}); any outcome where she loses less and/or
    gains more than an acceptable outcome is also acceptable.

    A deal is {e well-formed} when its graph is strongly connected — the
    hypothesis under which the HLS protocols are proven correct; E7 shows
    what breaks without it. *)

type party = int

type arc = { from_ : party; to_ : party; asset : Ledger.Asset.t }

type t

val make : parties:int -> transfers:(party * party * Ledger.Asset.t) list -> t
(** Raises [Invalid_argument] on out-of-range parties, self-arcs, duplicate
    (from, to) pairs, or zero-amount assets. *)

val parties : t -> int
val arcs : t -> arc list
val arc_count : t -> int
val successors : t -> party -> party list

val well_formed : t -> bool
(** The graph is strongly connected and has at least one arc. *)

val diameter : t -> int
(** Longest shortest-path over the arc graph, counting hops; 0 for a
    single-party graph, [parties] when unreachable pairs exist (used to size
    timelock ladders conservatively). *)

val expected_gain : t -> party -> Ledger.Asset.Bag.t
(** Everything [M(·,i)] promises party [i]. *)

val acceptable :
  t -> party -> gained:Ledger.Asset.Bag.t -> lost:Ledger.Asset.Bag.t -> bool
(** The HLS acceptability predicate: dominated-by-nothing-lost or
    dominates-full-execution. *)

(** {1 Stock deals for experiments} *)

val two_party_swap : unit -> t
(** 5 coinA from 0 to 1 against 3 coinB back — the canonical atomic swap. *)

val three_cycle : unit -> t
(** 0 → 1 → 2 → 0, three currencies. *)

val broker_dag : unit -> t
(** 0 → 1 → 2 with no return arcs: {e not} strongly connected — the
    counterexample deal for E7 (its safety breaks under a lazily-claiming
    Byzantine party, because the broker can only learn the full vote set
    from the on-chain reveal of her outgoing leg). *)

val disconnected_pair : unit -> t
(** Two unrelated transfers 0 → 1 and 2 → 3 packaged as one deal: not even
    weakly connected, so no party can ever assemble the vote set — strong
    liveness fails although everything refunds safely. *)

val pp : Format.formatter -> t -> unit

(** Source-to-sink path selection under per-escrow liquidity.

    The router answers one question per payment: which edge-disjoint
    source→sink paths carry it, and how much value rides each path. A
    {e split} is one path plus the value assigned to it; each split runs
    as an independent protocol instance (see {!Traffic.Load}), so a
    payment too large for any single path can still commit by splitting.

    Leg amounts include downstream commissions exactly like the paper's
    linear chain: on a path [e0 .. e(L-1)] carrying value [v], leg [i]
    moves [v + sum of commissions of e(i+1) .. e(L-1)]. A path's value
    capacity is therefore [min over i (avail(ei) - downstream commissions
    at i)], not the raw liquidity minimum.

    Two strategies, both deterministic:

    - {!Shortest}: fill the cheapest usable path (total commission, then
      hop count, then lexicographic node order) to capacity, then the
      next, greedily.
    - {!Round_robin}: collect up to [max_splits] disjoint usable paths in
      cost order, then deal value over them in rotating quanta — the
      cardano-wallet RoundRobin idea of giving every bucket a fair share
      per round, with a per-router cursor rotating which path leads each
      payment.

    Routing is all-or-nothing: if the disjoint paths found cannot jointly
    carry the full value, the route fails and nothing is reserved. *)

type strategy = Shortest | Round_robin

val strategy_name : strategy -> string
(** ["shortest"] / ["round-robin"]. *)

val strategy_of_string : string -> (strategy, string) result

type split = {
  path : int list;  (** edge indices, source first *)
  value : int;  (** value assigned to this path; [> 0] *)
}

type t
(** A stateful router over one topology: {!Round_robin} keeps a rotation
    cursor, and every router memoises its path searches by the set of
    usable edges, which cannot change a result (see docs/routing.md).
    Liquidity is the caller's, supplied per call via [avail]. *)

val create : ?strategy:strategy -> Topology.t -> t
(** Default {!Shortest}. *)

val strategy : t -> strategy

type refusal
(** Why a route failed: how many disjoint paths were found and the most
    value they could jointly carry. Rendered only by {!route}. *)

val attempt :
  t -> avail:(int -> int) -> value:int -> max_splits:int ->
  (split list, refusal) result
(** [avail i] is the spendable liquidity of edge [i] right now; it is
    read once per edge per call. On success the splits are edge-disjoint, each carries positive value,
    and their values sum to exactly [value]. A refusal builds no text. *)

val route :
  t -> avail:(int -> int) -> value:int -> max_splits:int ->
  (split list, string) result
(** {!attempt} with the refusal rendered as
    ["no route: N disjoint path(s) carry at most C of V"], for callers
    that print it. *)

val path_nodes : Topology.t -> int list -> int list
(** The node sequence a path visits, source first. *)

val leg_amounts : Topology.t -> path:int list -> value:int -> int array
(** [amounts.(i)] = value plus the commissions of every later edge — what
    the customer at position [i] pays into escrow [i]. *)

val path_capacity : Topology.t -> avail:(int -> int) -> int list -> int
(** Largest value the path can carry under [avail], commissions included.
    May be <= 0 when commissions exceed the available liquidity. *)

val paths : Topology.t -> ?avail:(int -> int) -> max:int -> unit -> int list list
(** Up to [max] edge-disjoint usable paths in cost order — the candidate
    set both strategies draw from ([avail] defaults to full liquidity). *)

val max_flow : Topology.t -> ?avail:(int -> int) -> unit -> int
(** The Edmonds–Karp max source→sink flow over edge capacities — an upper
    bound on simultaneously in-flight value (commissions ignored).
    >= {!Topology.unbounded} means effectively unbounded. *)

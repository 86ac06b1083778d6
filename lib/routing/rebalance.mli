(** Circular rebalancing plans for skewed liquidity.

    When one of a node's outgoing escrows drains while a sibling stays
    flush, the operator can move collateral between them (off-protocol:
    the same party funds both payer accounts). The planner proposes such
    moves Migration/Planning-style: scan every node with at least two
    bounded outgoing edges, target each edge toward the node's mean
    outgoing liquidity, and emit the moves in deterministic batches of
    bounded size so an operator can apply them incrementally.

    The planner is pure — it reads edge liquidity from the topology and
    proposes. *)

type move = {
  node : int;  (** whose outgoing liquidity is being shuffled *)
  from_edge : int;  (** surplus edge index *)
  to_edge : int;  (** deficit edge index *)
  amount : int;  (** > 0 *)
}

type plan = {
  moves : move list;  (** deterministic order: by node, then edge index *)
  batches : move list list;  (** [moves] chunked, at most [batch] per chunk *)
  volume : int;  (** total value moved *)
}

val plan : ?band_pct:int -> ?batch:int -> Topology.t -> plan
(** [band_pct] (default 25): an edge within ±band of its node's mean
    outgoing liquidity is left alone. [batch] (default 4): moves per
    batch. Unbounded edges never participate. *)

val pp : Format.formatter -> plan -> unit

(** Escrow payment graphs: the generalization of the paper's linear chain.

    A topology is a digraph whose nodes are customer hosts and whose edges
    are escrows: edge [u -> v] means an escrow exists at which [u] can pay
    [v], holding [liquidity] units of payer-side funding and charging the
    payer-side customer [commission] per payment routed through it. The
    paper's linear chain is the special case [linear:H]; Herlihy's
    cross-chain swap digraphs motivate the general form.

    Payments always travel from {!source} (node 0) to {!sink} (the
    highest-numbered node). A topology serializes to a one-line grammar
    with the same round-trip law as {!Faults.Fault_plan}:
    [of_string (to_string t) = Ok (normalize t)].

    Grammar (no spaces — topologies embed in workload specs):

    {v
    graph:NODES;U>V:LIQ:COMM,...      explicit edge list
    linear:HOPS[:LIQ[:COMM]]          the paper's chain, HOPS edges
    hub:SPOKES[:LIQ[:COMM]]          hub-and-spoke, hub = node 1
    er:NODES:EXTRA:SEED[:LIQ[:COMM]]  Erdos-Renyi: chain backbone + EXTRA
                                      random edges
    sf:NODES:DEG:SEED[:LIQ[:COMM]]    scale-free preferential attachment,
                                      DEG bidirectional edges per new node
    v}

    A spec may ask for at most 1000 nodes; [er] for at most 32768 extra
    edges and [sf] for [2 * NODES * DEG <= 32768], so a mistyped digit is
    an error rather than a graph that fills memory.

    [LIQ = 0] means unbounded liquidity. [to_string] always prints the
    canonical explicit [graph:] form, so generated families normalize to
    plain edge lists. *)

type edge = {
  src : int;
  dst : int;
  liquidity : int;  (** payer-side funding available at this escrow;
                        0 = unbounded *)
  commission : int;  (** charged to the payer-side customer per payment *)
}

type t = { nodes : int; edges : edge array }

val source : t -> int
(** Always node 0. *)

val sink : t -> int
(** Always node [nodes - 1]. *)

val unbounded : int
(** The capacity an [liquidity = 0] edge reports ([max_int / 8]) — large
    enough that no workload exhausts it, small enough not to overflow
    flow sums. *)

val capacity : edge -> int
(** [liquidity], with 0 mapped to {!unbounded}. *)

val out_edges : t -> int -> (int * edge) list
(** [(index, edge)] pairs leaving a node, in normalized edge order. *)

val to_string : t -> string
(** Canonical explicit form; the round-trip law is
    [of_string (to_string t) = Ok (normalize t)], where [normalize] sorts
    the edges by [(src, dst)]. *)

val of_string : string -> (t, string) result
(** Parses any grammar form above, expands generator families into
    explicit normalized edge lists, and validates: nodes >= 2, at least
    one edge, endpoints in range, no self-loops, no duplicate
    [(src, dst)] pairs, non-negative liquidity/commission, and the sink
    reachable from the source. *)

val liquidity_histogram : t -> (string * int) list
(** Edge counts bucketed by liquidity decade (["unbounded"], ["1-9"],
    ["10-99"], ...), in ascending bucket order. *)

val total_commission : t -> int
(** Sum of every edge's commission (an upper bound used to size ample
    funding). *)

val pp : Format.formatter -> t -> unit

(** Exhaustive small-scope verification over extremal schedules.

    The window inequalities behind Theorem 1 are monotone in every message
    delay and every clock rate: making a delay longer, or a clock faster
    or slower, only moves a schedule {e toward} the binding case of each
    inequality. The binding schedules therefore live at the corners of the
    schedule space — every message delay at its bound ({e min} or {e max})
    and every clock at an envelope extreme ({e slow} or {e fast}).

    This module enumerates {b all} such corners for small instances and
    checks the full Definition 1 report on each: 2{^ messages} delay
    assignments × 2{^ processes} clock assignments. For one hop that is
    6 messages × 3 processes → 512 corners; for two hops 12 × 5 → 131 072.
    Unlike the sampled experiments, a clean sweep here is an {e exhaustive}
    statement about the corner family — and the drift-blind baseline fails
    on concrete corners that the explorer returns as witnesses.

    Delay branching is driven by a deterministic bit-vector adversary
    (send k takes its bound from bit k); clock corners use
    {!Protocols.Runner.config.clock_override}. *)

type result = {
  corners : int;  (** corners explored *)
  violations : int;  (** corners where some applicable property failed *)
  first_witness : string option;
      (** description of the first violating corner — "first" in corner
          enumeration order, identical at any domain count *)
  events : int;  (** engine events across all corners (deterministic) *)
  cost : Fleet.cost;  (** the sweep's — nondeterministic, keep out of
                          byte-compared output *)
}

val sweep :
  ?hops:int ->
  ?drift_ppm:int ->
  ?max_corners:int ->
  ?domains:int ->
  ?prof:Obsv.Prof.t ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  protocol:Protocols.Runner.protocol ->
  unit ->
  result
(** Enumerates delay × clock corners for a payment of [hops] (default 1)
    legs at [drift_ppm] (default 50 000 = 5%) drift and checks Def. 1
    (eventual-termination flavour) on every corner. [max_corners]
    (default 600_000) guards against accidental explosion; the sweep
    raises [Invalid_argument] if the instance needs more.

    The corner space is sharded over [?domains] OCaml domains (default
    {!Fleet.default_domains}); every result field except [cost] is
    byte-identical for any domain count. [?on_progress]
    reports corners done / total from the calling domain — the hook
    behind the live progress line in [xchain explore].

    [prof] profiles every corner's dispatches into one accumulator set
    ({!Obsv.Prof}) and forces [domains = 1] (the profiler is
    single-threaded mutable state). *)

val result_to_json :
  ?hops:int ->
  ?drift_ppm:int ->
  protocol:Protocols.Runner.protocol ->
  result ->
  string
(** The sweep as one JSON object; every member except the trailing
    ["timing"] block is deterministic (strip it before byte-comparing
    across domain counts, as with {!Chaos.summary_to_json}). *)

(** Process-wide metrics registry.

    Counters, gauges and histograms, named and optionally labeled, in the
    Prometheus data model. The design goal is a hot path that can stay
    enabled at production scale: resolving a (name, labels) pair to an
    instrument handle is done once, up front, and the per-event operations
    on a handle ({!inc}, {!add}, {!set}, {!observe}) are lock-free atomic
    read-modify-writes on preallocated cells — they allocate zero words
    and never block.

    The registry is domain-safe: a fleet run ({!Fleet}) has every worker
    domain recording into the same registry. Counter and histogram updates
    are exact under any interleaving (atomic fetch-and-add); gauge {!set}
    is last-write-wins by design. The cold path — registration,
    {!snapshot}, {!reset} — serializes on one internal mutex, so
    registering handles from inside parallel jobs is safe, just not free;
    hoist handles out of loops as before.

    All values are integers: simulation time is integer ticks
    ({!Sim.Sim_time.t}), and counts are counts. Histograms use preallocated
    bucket arrays; the default layout is a 1–2–5 log scale, 1 .. 10^7 (21
    buckets plus the implicit [+Inf]), chosen to resolve both single-hop
    message delays (~10^2 ticks) and full payment horizons (~10^6 ticks).

    Instruments registered under the same name must agree on kind and
    bucket layout; disagreement is a programming error and raises
    [Invalid_argument]. Label sets are canonicalized (sorted by key), so
    label order at the call site does not create duplicate children. *)

type t
(** A registry: an ordered collection of metric families, each holding one
    child instrument per distinct label set. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Integer that can go up and down. *)

type histogram
(** Integer-valued distribution over preallocated buckets. *)

val create : unit -> t

val default : t
(** The process-wide registry. Library instrumentation (engine, network,
    runners, consensus) records here unless handed an explicit registry. *)

(** {1 Registration}

    Registering an existing (name, labels) pair returns the same handle,
    so call sites may re-register idempotently; hot paths should still
    hoist the handle out of their loop.

    A family keeps at most 64 distinct label sets. Past the cap, lookups
    return the family's shared overflow child, labeled [overflow="true"]:
    unbounded label values can degrade a metric but can never exhaust
    memory. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t ->
  ?help:string ->
  ?buckets:int array ->
  ?labels:(string * string) list ->
  string ->
  histogram
(** [buckets] are strictly increasing upper bounds (default: the 1–2–5
    log scale above); an implicit [+Inf] bucket is always appended. *)

val memo : (t -> 'a) -> t -> 'a
(** [memo resolve] is [resolve] remembered for the last registry it was
    applied to, by physical identity. A caller that resolves a record of
    handles for every run (an engine, a network, a payment) pays the
    registration lookups once per registry instead: the handles are the
    ones a fresh lookup returns, and {!reset} zeroes them in place, so
    every exposition is unchanged. Another registry misses and replaces
    the entry. Safe from several domains. *)

(** {1 Hot path} — zero allocation, O(1) (O(log buckets) for observe). *)

val inc : counter -> unit
val add : counter -> int -> unit
(** [add c n] with [n < 0] raises [Invalid_argument]: counters only go up. *)

val set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit

val observe : histogram -> int -> unit
(** Records a value: binary search over the preallocated bounds, two
    integer stores. *)

(** {1 Reading} *)

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { sum : int; count : int; buckets : (int * int) list }
      (** [buckets]: [(upper_bound, cumulative_count)] pairs, ascending;
          the final pair is [(max_int, count)] standing for [+Inf] *)

type sample = {
  s_name : string;
  s_help : string;
  s_kind : [ `Counter | `Gauge | `Histogram ];
  s_labels : (string * string) list;  (** canonical (key-sorted) order *)
  s_value : value;
}

val snapshot : t -> sample list
(** Every child of every family, in registration order — the stable
    iteration order both exporters rely on. *)

val families : t -> (string * string * string) list
(** [(name, kind, help)] per family, registration order — the catalogue
    view used by [xchain metrics]. *)

val reset : t -> unit
(** Zero every value, keeping all families and children registered. Used
    by the bench harness to isolate per-experiment snapshots. *)

val to_json : t -> string
(** The whole registry as one JSON object:
    [{"metrics":[{"name":...,"kind":...,"labels":{...},"value":...}, ...]}].
    Histogram children carry [sum], [count] and a [buckets] array of
    [[upper_bound, cumulative_count]] pairs ([null] bound for +Inf). *)

val json_escape : string -> string
(** JSON string-body escaping shared by the exporters: quote, backslash,
    and control characters. *)

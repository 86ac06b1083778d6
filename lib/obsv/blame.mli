(** Critical-path latency attribution over a {!Causal} graph.

    {!attribute} walks backward from a payment's sink event to its root,
    at each node following the {e binding} predecessor — the dependency
    that actually gated the event — and charges every hop of the walk to
    a blame category:

    - [Queueing]: a [Queue] edge — the interval an admission (or any
      explicit happens-after) spent waiting behind other work;
    - [Transit]: a [Message] edge up to the synchrony bound δ —
      per-hop compute + network transit;
    - [Gst_wait]: the part of a [Message] gap {e beyond} δ — pre-GST /
      asynchronous stretching (and adversarial delay);
    - [Timeout]: a [Timer] edge — time spent parked on a deadline;
    - [Downtime]: an [Outage] edge — crash-to-recovery dead time;
    - [Processing]: a [Program] edge — same-pid sequencing (usually 0
      gap: handlers run at a single tick);
    - [External]: the remainder when the walk exits the payment's own
      history without passing through the root (e.g. a pre-scheduled
      crash whose program-order past predates the payment) — charged as
      one cut segment so the invariant below still holds.

    Because node times are non-decreasing in id and every edge points
    forward, the chosen path telescopes: {b the category gaps always sum
    exactly to [time sink - time root]}, the observed end-to-end latency.
    That invariant is what makes the per-category table trustworthy — no
    latency is ever double-counted or dropped. *)

type category =
  | Queueing
  | Transit
  | Gst_wait
  | Timeout
  | Downtime
  | Processing
  | External

type segment = {
  seg_src : int;  (** predecessor node id; [-1] for the [External] cut *)
  seg_dst : int;
  seg_category : category;
  seg_gap : int;  (** [time dst - time src] (split for [Gst_wait]) *)
}

type report = {
  trace : int;  (** the sink node's trace id (payment index in load runs) *)
  root : int;
  sink : int;
  total : int;  (** [time sink - time root]; equals the segment-gap sum *)
  rooted : bool;  (** the walk reached [root] through real edges *)
  path : int list;  (** root (or the cut node) → sink, increasing ids *)
  segments : segment list;  (** sink-most last; gaps sum to [total] *)
  by_category : (category * int) list;  (** all categories, stable order *)
}

val attribute : ?delta:int -> Causal.t -> root:int -> sink:int -> report
(** Critical path and blame decomposition for one payment. [delta]
    (default: none) is the synchrony bound used to split [Message] gaps
    into [Transit] + [Gst_wait]; without it the whole gap is [Transit].
    Raises [Invalid_argument] if [sink < root] or either id is out of
    range. *)

val check : report -> bool
(** The invariant: category gaps sum to [total] and segment gaps are all
    non-negative. Always true for {!attribute} output; exposed so tests
    and CI can assert it. *)

type agg = {
  payments : int;
  agg_total : int;
  agg_by_category : (category * int) list;
  tail_count : int;  (** size of the slowest-[tail_pct]% subset (≥ 1) *)
  tail_total : int;
  tail_by_category : (category * int) list;
}

val aggregate : ?tail_pct:int -> report list -> agg
(** Sum the per-payment decompositions, and separately the slowest
    [tail_pct] percent (default 1 — the p99 tail, rounded up to at least
    one payment), so the tail's blame table shows where the p99 goes. *)

val report_to_json : report -> string
val agg_to_json : agg -> string
val pp_report : Format.formatter -> report -> unit
val pp_agg : Format.formatter -> agg -> unit

val pp_path : Causal.t -> Format.formatter -> report -> unit
(** The critical path, one line per segment with node detail:
    [t=117 pid 3 deliver:chi  <- message  +100 transit]. *)

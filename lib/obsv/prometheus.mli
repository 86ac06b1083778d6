(** Prometheus text exposition (format version 0.0.4).

    Renders a registry snapshot as the plain-text format scraped by
    Prometheus: per family a [# HELP] line (when help text is present) and
    a [# TYPE] line, then one sample line per child. Histograms expand to
    cumulative [_bucket{le="..."}] series plus [_sum] and [_count].

    Label {e values} are escaped per the spec: backslash, double quote and
    newline; [# HELP] text escapes backslash and newline. Families print
    in registration order and children in creation order, so the output is
    deterministic for a deterministic workload — the CLI cram tests rely
    on this. *)

val render : Metrics.t -> string
(** The full exposition, families in registration order, terminated by a
    newline. *)

(** Periodic sim-time telemetry series.

    A sampler owns one probe — a closure returning a row of integers for
    named columns — and reads it whenever the engine clock reaches the
    next multiple-ish of the sampling interval ({!tick} is called after
    every dispatch; sim-time jumps, so rows are stamped with the actual
    clock value that crossed the due time). Deterministic schedule in,
    byte-identical JSONL series out.

    Like the monitor and the profiler, the off path in the engine is one
    [option] match per event; a sampler only costs anything when armed. *)

type t

val create : ?interval:int -> unit -> t
(** [interval] is the sim-time sampling period (default 100 ticks);
    raises [Invalid_argument] when not positive. *)

val set_probe : t -> columns:string list -> (unit -> int array) -> unit
(** Install the probe. The closure must return rows of [columns] length,
    in column order, and must not mutate run state. *)

val tick : t -> now:int -> unit
(** Called by the engine after each dispatch; samples when [now] has
    reached the next due time. *)

val to_jsonl : t -> string
(** One JSON object per row — [{"t":N,"<col>":v,...}] — followed by a
    trailing [{"series":{"rows":N,"interval":I}}] meta line. Fully
    deterministic. *)

(** Priority queue of timestamped events.

    A binary min-heap ordered by [(time, sequence number)]. The sequence
    number is assigned at insertion, so two events scheduled for the same
    tick pop in insertion order — this makes every engine run a deterministic
    function of its inputs, independent of heap internals. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:Sim_time.t -> 'a -> unit
(** [push q ~time e] schedules [e] at [time]. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Removes and returns the earliest event. *)

val peek_time : 'a t -> Sim_time.t option
(** Time of the earliest event, without removing it. *)

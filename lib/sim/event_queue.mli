(** Priority queue of timestamped events.

    A binary min-heap ordered by [(time, sequence number)]. The sequence
    number is assigned at insertion, so two events scheduled for the same
    tick pop in insertion order — this makes every engine run a deterministic
    function of its inputs, independent of heap internals.

    The heap is held as parallel arrays of times, sequence numbers,
    payloads and handles: a push allocates nothing (beyond doubling the
    arrays), and a pop clears the slot it vacates, so the queue never keeps
    a popped payload alive.

    An event pushed with {!push_removable} can be taken out before it is
    due with {!remove}, in O(log n). Removing an event never reorders the
    others: each keeps its (time, sequence number) key. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:Sim_time.t -> 'a -> unit
(** [push q ~time e] schedules [e] at [time]. *)

type handle
(** Names one queued event pushed with {!push_removable}, until it pops or
    is removed. The queue then reuses it for a later push. *)

val push_removable : 'a t -> time:Sim_time.t -> 'a -> handle
(** Like {!push}, and returns a handle that {!remove} takes. Allocates
    nothing beyond doubling the queue's arrays. *)

val remove : 'a t -> handle -> unit
(** [remove q h] takes [h]'s event out of the queue, in O(log n): it never
    pops. [h] must still name a queued event: once its event pops or is
    removed, a later {!push_removable} may reuse it. Raises
    [Invalid_argument] for a handle that names no queued event. *)

val reserve : 'a t -> int -> int
(** [reserve q n] sets aside the next [n] sequence numbers and returns the
    first: events pushed later with {!push_reserved} under these numbers
    pop as if they had been pushed now. *)

val push_reserved : 'a t -> time:Sim_time.t -> seq:int -> 'a -> unit
(** [push_reserved q ~time ~seq e] schedules [e] at [time] under [seq], a
    number {!reserve} returned (or one of the [n - 1] after it), used once.
    Lets a caller keep a long run of same-priority events out of the heap
    until each is next due. Raises [Invalid_argument] for a number never
    reserved. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Removes and returns the earliest event. *)

val min_time : 'a t -> Sim_time.t
(** Time of the earliest event, without removing it. No option: the
    engine's loop reads the head this way so a dispatch allocates nothing
    here. Raises [Invalid_argument] on an empty queue. *)

val pop_min : 'a t -> 'a
(** Like {!pop} without the option and pair: removes the earliest event
    and returns its payload (read its time with {!min_time} first).
    Raises [Invalid_argument] on an empty queue. *)

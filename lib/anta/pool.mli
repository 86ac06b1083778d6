(** The pending pool of a running automaton: messages delivered to the
    process but not yet consumed by a transition, oldest first.

    The executor and the trace-conformance replay share this pool and
    {!Automaton.match_receive}, so both fire receive transitions by one
    rule. A push allocates only when the pool's arrays double; a match and
    a take allocate nothing. *)

type 'msg t

type sender = One of int | Among of int array | Any
(** Who a receive listens to: one pid, any pid of a set, or anyone. *)

val admits : sender -> int -> bool

val create : unit -> 'msg t
val length : 'msg t -> int

val clear : 'msg t -> unit
(** Empty the pool, keeping its arrays for the next pushes; of its old
    messages it keeps at most one reachable, as a filler. *)

val push : 'msg t -> int -> 'msg -> unit
(** [push t src m] appends [m], received from [src]. *)

val find : 'msg t -> from_:sender -> accept:('i -> 'msg -> bool) -> 'i -> bool
(** [find t ~from_ ~accept inst]: is there a message from a sender
    [from_] admits that [accept inst] takes? The guard gets the instance
    as an argument, so matching builds no closure. The pool is
    scanned oldest first; the first match is remembered for
    {!take_hit}. *)

val take_hit : 'msg t -> 'msg
(** Remove and return the message the last successful {!find} matched. *)
